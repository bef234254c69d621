import gc
import weakref
from collections import deque
from dataclasses import fields, replace
from itertools import islice, product

import numpy as np
import pytest

from echelonopt import engine, sampling
from echelonopt.config import load_config
from echelonopt.engine import InvalidPolicyError, sim_network
from echelonopt.model import (
    SOURCE,
    DemandChoice,
    FacilitySpec,
    HistoryDataset,
    NetworkSpec,
    NetworkValidationError,
    PolicyVector,
    ScenarioConfig,
    repair_policy_array,
)
from echelonopt.objective import aggregate_outcomes, evaluate
from echelonopt.sampling import generate_synthetic_history
from reference_engine import (
    FacilityState,
    ReplenishmentOrder,
    fulfill_orders,
    place_order,
    serve_customer,
    sim_network as reference_sim_network,
)
from test_acceptance import PRESET, _random_scenario


def single_facility(base_lead=2):
    return NetworkSpec([FacilitySpec("store", SOURCE, base_lead, 0.95, True)])


def chain(base_lead_hub=2, base_lead_store=1):
    return NetworkSpec([
        FacilitySpec("hub", SOURCE, base_lead_hub, 0.0, False),
        FacilitySpec("store", "hub", base_lead_store, 0.9, True),
    ])


def constant_history(network, demand, lead_delta=0):
    return HistoryDataset(
        demand={fid: [demand] for fid in network.customer_ids},
        lead_delta={fid: [lead_delta] for fid in network.ids})


class TestPlaceOrder:
    def test_orders_up_to_base_stock(self):
        state = FacilityState(on_hand=800, inv_position=900)
        queue = deque()
        order = place_order(state, 1000, 3000, queue, "f", day=4, order_id=0)
        assert order is not None and order.quantity == 2200
        assert state.inv_position == 3100
        assert list(queue) == [order]

    def test_no_order_above_reorder_point(self):
        state = FacilityState(on_hand=900, inv_position=1001)
        queue = deque()
        assert place_order(state, 1000, 3000, queue, "f", 1, 0) is None
        assert not queue and state.inv_position == 1001

    def test_nonpositive_quantity_skipped(self):
        # R=200, B=200, I=150, O=250: q = -50, silently no order.
        state = FacilityState(on_hand=250, inv_position=150)
        queue = deque()
        assert place_order(state, 200, 200, queue, "f", 1, 0) is None
        assert not queue and state.inv_position == 150


class TestServeCustomer:
    def test_lost_sales_sufficient_stock(self):
        state = FacilityState(on_hand=10, inv_position=10)
        shipped = serve_customer(state, 4, DemandChoice.LOST_SALES)
        assert shipped == 4
        assert state.on_hand == 6 and state.inv_position == 6
        assert state.total_demand == 4 and state.total_shipped == 4

    def test_lost_sales_stockout_loses_remainder(self):
        state = FacilityState(on_hand=3, inv_position=3)
        shipped = serve_customer(state, 5, DemandChoice.LOST_SALES)
        assert shipped == 3
        assert state.total_shipped == 3 and state.total_demand == 5
        assert state.backorders == 0 and state.total_late == 0

    def test_backorder_serves_backlog_first(self):
        # Bk=2, d=5, O=10: ship 7, backlog cleared, nothing late.
        state = FacilityState(on_hand=10, inv_position=8, backorders=2)
        shipped = serve_customer(state, 5, DemandChoice.BACKORDER)
        assert shipped == 7
        assert state.backorders == 0
        assert state.total_late == 0
        assert state.on_hand == 3 and state.inv_position == 1

    def test_backorder_accumulates_late_sales(self):
        state = FacilityState(on_hand=2, inv_position=2)
        serve_customer(state, 5, DemandChoice.BACKORDER)
        assert state.backorders == 3 and state.total_late == 3
        serve_customer(state, 4, DemandChoice.BACKORDER)  # O=0 now
        assert state.backorders == 7 and state.total_late == 7


class TestFulfillOrders:
    @staticmethod
    def collect(state, day):
        shipped = []
        fulfill_orders(state, day, lambda order, d: shipped.append((order, d)))
        return shipped

    def test_full_stock_ships_same_day(self):
        state = FacilityState(on_hand=500, inv_position=500)
        state.order_queue.append(ReplenishmentOrder(300, "f", 1, 0))
        shipped = self.collect(state, day=1)
        assert [(o.quantity, d) for o, d in shipped] == [(300, 1)]
        assert state.on_hand == 200

    def test_head_of_line_blocking_single_chunk_remainder(self):
        # O=100, head o=300: grab 100, block; a 250 delivery later covers
        # the 200 remainder in one chunk and the shipment is created.
        state = FacilityState(on_hand=100, inv_position=100)
        state.order_queue.append(ReplenishmentOrder(300, "f", 1, 0))
        assert self.collect(state, day=1) == []
        assert state.on_hand == 0
        assert state.order_queue[0].reserved == 100

        state.on_hand += 150  # not enough: needs the full 200 at once
        assert self.collect(state, day=2) == []
        assert state.on_hand == 150
        assert state.order_queue[0].reserved == 100

        state.on_hand += 100  # 250 on hand >= 200 remainder
        shipped = self.collect(state, day=3)
        assert [(o.quantity, d) for o, d in shipped] == [(300, 3)]
        assert state.on_hand == 50

    def test_fifo_blocks_later_orders(self):
        # Queue [(100 for f4), (50 for f5)], O=60: f4 blocks everything.
        state = FacilityState(on_hand=60, inv_position=60)
        state.order_queue.append(ReplenishmentOrder(100, "f4", 1, 0))
        state.order_queue.append(ReplenishmentOrder(50, "f5", 1, 1))
        assert self.collect(state, day=1) == []
        assert state.on_hand == 0
        state.on_hand += 200
        shipped = self.collect(state, day=2)
        assert [o.requester for o, _ in shipped] == ["f4", "f5"]
        assert state.on_hand == 200 - 40 - 50

    def test_queue_drains_within_a_day_when_stock_allows(self):
        state = FacilityState(on_hand=1000, inv_position=1000)
        for i, qty in enumerate((100, 200, 300)):
            state.order_queue.append(ReplenishmentOrder(qty, f"f{i}", 1, i))
        shipped = self.collect(state, day=1)
        assert [o.quantity for o, _ in shipped] == [100, 200, 300]
        assert state.on_hand == 400


def brute_force_single_facility(horizon, base_lead, rop, base_stock,
                                demand, init_fraction=0.9):
    """Independent trajectory script for the deterministic sawtooth.

    Plain day loop over one store replenished instantly by the source:
    arrivals, then customer demand, then a possible order.  Kept separate
    from the engine on purpose; only the daily conventions are shared.
    """
    on_hand = position = round(init_fraction * base_stock)
    in_transit = []  # (arrival_day, qty)
    total_demand = total_shipped = 0
    trace = []
    for day in range(1, horizon + 1):
        arrived = sum(q for a, q in in_transit if a <= day)
        in_transit = [(a, q) for a, q in in_transit if a > day]
        on_hand += arrived
        total_demand += demand
        s = min(demand, on_hand)
        total_shipped += s
        on_hand -= s
        position -= s
        if position <= rop:
            q = base_stock - on_hand
            if q > 0:
                position += q
                in_transit.append((day + base_lead, q))
        trace.append(on_hand)
    return sum(trace) / horizon, total_shipped / total_demand


class TestSimNetwork:
    def test_deterministic_sawtooth_matches_brute_force(self):
        net = single_facility(base_lead=2)
        pol = PolicyVector({"store": 50}, {"store": 100})
        hist = constant_history(net, demand=10)
        cfg = ScenarioConfig(horizon=360, replications=1, base_seed=1,
                             demand_choice=DemandChoice.LOST_SALES)
        out = sim_network(net, pol, hist, cfg, 1)
        expected_a, expected_beta = brute_force_single_facility(
            360, 2, 50, 100, 10)
        assert out.avg_on_hand["store"] == expected_a == 60.0
        assert out.beta["store"] == expected_beta == 1.0

    def test_huge_base_stock_gives_perfect_service(self):
        net = chain()
        pol = PolicyVector({"hub": 0, "store": 0},
                           {"hub": 40_000, "store": 40_000})
        hist = HistoryDataset(demand={"store": [5, 20, 40]},
                              lead_delta={"hub": [0, 2], "store": [1]})
        cfg = ScenarioConfig(horizon=200, replications=1, base_seed=3)
        out = sim_network(net, pol, hist, cfg, 1)
        assert out.beta["store"] == 1.0

    def test_noncustomer_facility_reports_beta_one(self):
        net = chain()
        pol = PolicyVector({"hub": 50, "store": 30}, {"hub": 200, "store": 80})
        hist = HistoryDataset(demand={"store": [10]},
                              lead_delta={"hub": [0], "store": [0]})
        cfg = ScenarioConfig(horizon=100, replications=1, base_seed=3)
        out = sim_network(net, pol, hist, cfg, 1)
        assert out.total_demand["hub"] == 0
        assert out.beta["hub"] == 1.0

    def test_deliveries_add_up_on_same_day(self):
        # Two source shipments landing the same day both count.
        net = single_facility(base_lead=3)
        pol = PolicyVector({"store": 100}, {"store": 120})
        hist = constant_history(net, demand=30)
        cfg = ScenarioConfig(horizon=30, replications=1, base_seed=1)
        out = sim_network(net, pol, hist, cfg, 1, record_events=True)
        arrivals = [e for e in out.events if e[3] == "arrive"]
        delivered = sum(d["quantity"] for *_, d in arrivals)
        assert (round(0.9 * 120) + delivered
                == out.final_on_hand["store"] + out.total_shipped["store"])

    def test_delivery_day_is_creation_plus_base_plus_delta(self):
        # base lead 4, constant delta 3: every shipment lands 7 days
        # after it was created.
        net = single_facility(base_lead=4)
        pol = PolicyVector({"store": 100}, {"store": 200})
        hist = HistoryDataset(demand={"store": [15]},
                              lead_delta={"store": [3]})
        cfg = ScenarioConfig(horizon=60, replications=1, base_seed=2)
        out = sim_network(net, pol, hist, cfg, 1, record_events=True)
        ships = [e for e in out.events if e[3] == "ship"]
        arrivals = {e[4]["order_id"]: e[1] for e in out.events
                    if e[3] == "arrive"}
        assert ships
        for _, day, _, _, data in ships:
            assert data["arrival_day"] == day + 4 + 3
            if data["order_id"] in arrivals:
                assert arrivals[data["order_id"]] == day + 7

    def test_missing_policy_facility_raises(self):
        net = chain()
        pol = PolicyVector({"hub": 0}, {"hub": 10})
        hist = HistoryDataset(demand={"store": [1]},
                              lead_delta={"hub": [0], "store": [0]})
        cfg = ScenarioConfig(horizon=10, replications=1)
        with pytest.raises(InvalidPolicyError,
                           match="^policy missing facility store$"):
            sim_network(net, pol, hist, cfg, 1)

    def test_replication_determinism(self):
        net = chain()
        pol = PolicyVector({"hub": 100, "store": 40},
                           {"hub": 300, "store": 120})
        hist = HistoryDataset(demand={"store": [5, 11, 23, 40]},
                              lead_delta={"hub": [0, 1, 2], "store": [0, 1]})
        cfg = ScenarioConfig(horizon=150, replications=1, base_seed=9)
        a = sim_network(net, pol, hist, cfg, replication_index=4)
        b = sim_network(net, pol, hist, cfg, replication_index=4)
        assert a.avg_on_hand == b.avg_on_hand
        assert a.beta == b.beta
        c = sim_network(net, pol, hist, cfg, replication_index=5)
        assert c.avg_on_hand != a.avg_on_hand

    def test_recording_does_not_change_results(self):
        # event/trace instrumentation must be observation-only
        net = chain()
        pol = PolicyVector({"hub": 100, "store": 40},
                           {"hub": 300, "store": 120})
        hist = HistoryDataset(demand={"store": [5, 11, 23, 40]},
                              lead_delta={"hub": [0, 1, 2], "store": [0, 1]})
        cfg = ScenarioConfig(horizon=150, replications=1, base_seed=9)
        bare = sim_network(net, pol, hist, cfg, 2)
        instrumented = sim_network(net, pol, hist, cfg, 2,
                                   record_trace=True, record_events=True)
        assert bare.avg_on_hand == instrumented.avg_on_hand
        assert bare.beta == instrumented.beta
        assert bare.total_demand == instrumented.total_demand
        assert bare.final_on_hand == instrumented.final_on_hand

    def test_trace_has_expected_columns_and_length(self):
        net = chain()
        pol = PolicyVector({"hub": 100, "store": 40},
                           {"hub": 300, "store": 120})
        hist = HistoryDataset(demand={"store": [5, 11]},
                              lead_delta={"hub": [0], "store": [1]})
        cfg = ScenarioConfig(horizon=25, replications=1, base_seed=9)
        out = sim_network(net, pol, hist, cfg, 1, record_trace=True)
        for fid in ("hub", "store"):
            for column in ("on_hand", "inv_position", "backorders",
                           "demand", "shipped"):
                assert len(out.trace[fid][column]) == 25

    @pytest.mark.parametrize("choice", [DemandChoice.LOST_SALES,
                                        DemandChoice.BACKORDER])
    def test_position_equals_on_hand_plus_outstanding(self, choice):
        # Position tracks on-hand plus undelivered order quantity (queued
        # upstream or in transit) under the literal position updates.
        net = chain()
        pol = PolicyVector({"hub": 120, "store": 50},
                           {"hub": 360, "store": 150})
        hist = HistoryDataset(demand={"store": [0, 17, 31, 60]},
                              lead_delta={"hub": [0, 1, 3], "store": [0, 2]})
        cfg = ScenarioConfig(horizon=120, replications=1, base_seed=21,
                             demand_choice=choice)
        out = sim_network(net, pol, hist, cfg, 1, record_trace=True,
                          record_events=True)
        outstanding = {fid: 0 for fid in net.ids}
        for seq, day, fid, kind, data in out.events:
            if kind == "order":
                outstanding[fid] += data["quantity"]
            elif kind == "arrive":
                outstanding[fid] -= data["quantity"]
        for fid in net.ids:
            expected = out.trace[fid]["on_hand"][-1] + outstanding[fid]
            assert out.trace[fid]["inv_position"][-1] == expected

    def test_backlog_does_not_lower_inventory_position(self):
        # Backorder mode: the position is on-hand plus in-transit stock,
        # with no deduction for the customer backlog.  Day 2 orders
        # 30 - 7 = 23 units (base stock minus on-hand), due on day 5, and
        # days 3 and 4 stock out.  Were the backlog deducted, day 4's
        # position would be 23 - 13 = 10 <= 15 and a second order would go
        # out.
        net = NetworkSpec([FacilitySpec("store", SOURCE, 3, 0.95, True)])
        pol = PolicyVector({"store": 15}, {"store": 30})
        hist = HistoryDataset(demand={"store": [10]},
                              lead_delta={"store": [0]})
        cfg = ScenarioConfig(horizon=6, replications=1, base_seed=1,
                             demand_choice=DemandChoice.BACKORDER)
        out = sim_network(net, pol, hist, cfg, 1, record_trace=True)
        trace = out.trace["store"]
        in_transit = 23
        for day in (3, 4):
            assert trace["backorders"][day - 1] > 0
            assert (trace["inv_position"][day - 1]
                    == trace["on_hand"][day - 1] + in_transit)
        assert trace["backorders"][:4] == [0, 0, 3, 13]
        assert trace["inv_position"][:4] == [17, 30, 23, 23]


def outcome_fields(outcome):
    return {f.name: getattr(outcome, f.name) for f in fields(outcome)}


def assert_matches_reference(network, policy, history, cfg, replication,
                             trace, events):
    got = sim_network(network, policy, history, cfg, replication,
                      record_trace=trace, record_events=events)
    want = reference_sim_network(network, policy, history, cfg, replication,
                                 record_trace=trace, record_events=events)
    assert outcome_fields(got) == outcome_fields(want)
    return got


class TestMatchesReferenceEngine:
    @pytest.mark.parametrize("record", [False, True],
                             ids=["recorders-off", "recorders-on"])
    def test_invariant_fuzz_networks(self, record):
        # The 1,000 networks of acceptance criterion 5.  With the recorders
        # on, the totals kept by identity must also agree with the trace.
        rng = np.random.default_rng(424242)
        for _ in range(1000):
            net, pol, hist, cfg = _random_scenario(rng)
            out = assert_matches_reference(net, pol, hist, cfg, 1, record,
                                           record)
            if record:
                for fid in net.ids:
                    trace = out.trace[fid]
                    assert (out.avg_on_hand[fid]
                            == sum(trace["on_hand"]) / cfg.horizon)
                    assert out.total_shipped[fid] == sum(trace["shipped"])

    def test_every_demand_choice_and_recorder_setting(self):
        # The 1,000 networks of acceptance criterion 5, each under both
        # demand choices and all four recorder settings: every setting
        # runs its own generated loop, and each must give the reference's
        # outcome, with only the recorders it asked for.
        rng = np.random.default_rng(424242)
        scenarios = [_random_scenario(rng) for _ in range(1000)]
        # one topology after another, so its eight loops compile once
        scenarios.sort(key=lambda s: [f.upstream for f in s[0].facilities])
        for net, pol, hist, base_cfg in scenarios:
            for choice in DemandChoice:
                cfg = replace(base_cfg, demand_choice=choice)
                want = outcome_fields(reference_sim_network(
                    net, pol, hist, cfg, 1, record_trace=True,
                    record_events=True))
                for trace, events in product((False, True), repeat=2):
                    got = sim_network(net, pol, hist, cfg, 1,
                                      record_trace=trace,
                                      record_events=events)
                    assert outcome_fields(got) == {
                        **want, "trace": want["trace"] if trace else None,
                        "events": want["events"] if events else None}

    def test_backlog_cleared_by_same_day_arrival(self):
        # R=15, B=30, start 27, demand 10: day 2 orders 23, due day 5.
        # Days 3-4 build a backlog of 13; day 5's arrival of 23 clears it
        # exactly, and day 6 is short again.
        net = single_facility(base_lead=3)
        pol = PolicyVector({"store": 15}, {"store": 30})
        hist = constant_history(net, demand=10)
        cfg = ScenarioConfig(horizon=6, replications=1, base_seed=1)
        out = assert_matches_reference(net, pol, hist, cfg, 1, trace=True,
                                       events=True)
        assert out.trace["store"]["backorders"] == [0, 0, 3, 13, 0, 10]
        assert out.trace["store"]["shipped"] == [10, 10, 7, 0, 23, 0]
        assert out.avg_on_hand["store"] == (17 + 7) / 6
        assert out.total_shipped["store"] == 60 - 10
        assert out.total_late["store"] == 3 + 10 + 10
        assert out.final_backorders["store"] == 10

    def test_late_units_count_demand_beyond_the_days_stock(self):
        # The late rule: a day's late units are max(0, demand - on-hand
        # after arrivals), even when an older backlog takes that stock
        # first.  R=5, B=12, start 11, demand 10: day 1 orders 11, due
        # day 4.  Day 4's arrival of 11 all goes to the backlog of 19,
        # yet none of that day's 10 units counts as late; counting the
        # day's own unshipped units would give 39 late and beta 0.22.
        net = single_facility(base_lead=3)
        pol = PolicyVector({"store": 5}, {"store": 12})
        hist = constant_history(net, demand=10)
        cfg = ScenarioConfig(horizon=5, replications=1, base_seed=1)
        out = assert_matches_reference(net, pol, hist, cfg, 1, trace=True,
                                       events=True)
        assert out.trace["store"]["backorders"] == [0, 9, 19, 18, 28]
        assert out.trace["store"]["shipped"] == [10, 1, 0, 11, 0]
        assert out.total_late["store"] == 0 + 9 + 10 + 0 + 10 == 29
        assert out.beta["store"] == 1 - 29 / 50  # 0.42

    @pytest.mark.parametrize("rop,base", [(0, 0), (10**15, 3 * 10**15)],
                             ids=["no-stock", "stocked"])
    def test_weighted_demand_beyond_int64(self, rop, base):
        # 10**15 units a day over 360 days give W = 10**15 x 360 x 361 / 2,
        # about 6.5e19, past int64; held stays an exact integer.
        net = single_facility()
        pol = PolicyVector({"store": rop}, {"store": base})
        hist = constant_history(net, demand=10**15)
        cfg = ScenarioConfig(horizon=360, replications=1, base_seed=1)
        out = assert_matches_reference(net, pol, hist, cfg, 1, trace=False,
                                       events=False)
        if base == 0:
            assert out.avg_on_hand["store"] == 0.0

    @pytest.mark.parametrize("base_lead,delta", [
        (10**30, 0), (2**63 - 10, 2**63 - 15)], ids=["beyond-int64",
                                                    "sum-beyond-int64"])
    def test_lead_time_beyond_int64(self, base_lead, delta):
        # The store starts with 90 and orders once, from SOURCE, on day 4;
        # the order is due long after the horizon, so it never lands: day
        # d ends with 90 - 10 d on hand until day 9, then 0.
        net = single_facility(base_lead=base_lead)
        pol = PolicyVector({"store": 50}, {"store": 100})
        hist = constant_history(net, demand=10, lead_delta=delta)
        cfg = ScenarioConfig(horizon=30, replications=1, base_seed=1)
        out = assert_matches_reference(net, pol, hist, cfg, 1, trace=True,
                                       events=True)
        assert out.avg_on_hand["store"] == 360 / 30 == 12.0
        assert out.total_shipped["store"] == 90

    def test_lost_sales_stockout_day(self):
        # As above under lost sales: day 3 ships 7 and loses 3, day 4
        # loses all 10, day 5's arrival of 23 leaves 13 and reorders 17.
        net = single_facility(base_lead=3)
        pol = PolicyVector({"store": 15}, {"store": 30})
        hist = constant_history(net, demand=10)
        cfg = ScenarioConfig(horizon=6, replications=1, base_seed=1,
                             demand_choice=DemandChoice.LOST_SALES)
        out = assert_matches_reference(net, pol, hist, cfg, 1, trace=True,
                                       events=True)
        assert out.trace["store"]["on_hand"] == [17, 7, 0, 0, 13, 3]
        assert out.trace["store"]["shipped"] == [10, 10, 7, 0, 10, 10]
        assert out.avg_on_hand["store"] == 40 / 6
        assert out.total_shipped["store"] == 47
        assert out.beta["store"] == 47 / 60
        assert out.total_late["store"] == out.final_backorders["store"] == 0

    def test_facility_serving_customers_and_shipping_downstream(self):
        # The hub serves 5 a day and ships the store's orders of 20 on
        # days 3 and 5; its own orders from SOURCE land the next morning.
        net = NetworkSpec([
            FacilitySpec("hub", SOURCE, 1, 0.9, True),
            FacilitySpec("store", "hub", 1, 0.9, True),
        ])
        pol = PolicyVector({"hub": 20, "store": 10}, {"hub": 40, "store": 30})
        hist = HistoryDataset(demand={"hub": [5], "store": [10]},
                              lead_delta={"hub": [0], "store": [0]})
        cfg = ScenarioConfig(horizon=6, replications=1, base_seed=1,
                             initial_inventory_fraction=1.0)
        out = assert_matches_reference(net, pol, hist, cfg, 1, trace=True,
                                       events=True)
        assert out.trace["hub"]["on_hand"] == [35, 30, 5, 35, 10, 35]
        assert out.trace["store"]["on_hand"] == [20, 10, 0, 10, 0, 10]
        assert out.avg_on_hand == {"hub": 150 / 6, "store": 50 / 6}
        assert out.beta == {"hub": 1.0, "store": 1.0}

    def test_reorder_point_equal_to_base_stock_orders_every_day(self):
        # R = B = 20 with zero lead: each day ships 10 and orders the 10
        # back, which lands the next morning.
        net = single_facility(base_lead=0)
        pol = PolicyVector({"store": 20}, {"store": 20})
        hist = constant_history(net, demand=10)
        cfg = ScenarioConfig(horizon=30, replications=1, base_seed=1,
                             initial_inventory_fraction=1.0)
        out = assert_matches_reference(net, pol, hist, cfg, 1, trace=True,
                                       events=True)
        orders = [e for e in out.events if e[3] == "order"]
        assert [(e[1], e[4]["quantity"]) for e in orders] == [
            (day, 10) for day in range(1, 31)]
        assert out.trace["store"]["inv_position"] == [20] * 30
        assert out.avg_on_hand["store"] == 10.0
        assert out.beta["store"] == 1.0

    @pytest.mark.parametrize("choice", [DemandChoice.BACKORDER,
                                        DemandChoice.LOST_SALES])
    def test_five_facility_preset(self, choice):
        # Full preset scale (20 replications x 360 days), the initial
        # policy plus box-wide repaired points with long order queues.
        cfg = load_config(PRESET)
        history = generate_synthetic_history(cfg.network, cfg.generator,
                                             cfg.scenario.base_seed)
        scenario = replace(cfg.scenario, demand_choice=choice)
        space = cfg.space
        points = space.latin_hypercube(np.random.default_rng(7), 3)
        policies = [cfg.initial_policy] + [
            PolicyVector.from_array(
                cfg.network, repair_policy_array(x, space.lower, space.upper))
            for x in points]
        # All four recorder combinations: a recorder that came to depend
        # on the other would show only in the trace-only and events-only
        # runs.
        for policy in policies:
            for rep in range(1, scenario.replications + 1):
                for trace, events in product((False, True), repeat=2):
                    assert_matches_reference(cfg.network, policy, history,
                                             scenario, rep, trace, events)


def cache_scenario():
    net = NetworkSpec([
        FacilitySpec("hub", SOURCE, 2, 0.0, False),
        FacilitySpec("east", "hub", 1, 0.9, True),
        FacilitySpec("west", "hub", 3, 0.95, True),
    ])
    hist = HistoryDataset(
        demand={"east": [0, 4, 9, 15], "west": [2, 3, 11]},
        lead_delta={"hub": [0, 1, 3], "east": [0, 2], "west": [1, 4]})
    cfg = ScenarioConfig(horizon=90, replications=3, base_seed=11)
    policy = PolicyVector({"hub": 40, "east": 12, "west": 10},
                          {"hub": 120, "east": 30, "west": 35})
    return net, hist, cfg, policy


def other_network(net, hist, cfg):
    slower = NetworkSpec([replace(f, base_lead_time=f.base_lead_time + 2)
                          if f.id == "west" else f for f in net.facilities])
    return slower, hist, cfg


def other_history(net, hist, cfg):
    return net, HistoryDataset(
        demand={"east": [1, 5, 20], "west": [2, 3, 11]},
        lead_delta=hist.lead_delta), cfg


def equal_history(net, hist, cfg):
    return net, HistoryDataset(demand=dict(hist.demand),
                               lead_delta=dict(hist.lead_delta)), cfg


SCENARIO_CHANGES = {
    "equal-content history": equal_history,
    "other history": other_history,
    "horizon": lambda net, hist, cfg: (net, hist, replace(cfg, horizon=70)),
    "base_seed": lambda net, hist, cfg: (net, hist,
                                         replace(cfg, base_seed=12)),
    "network": other_network,
}


def cold_z(policy, net, hist, cfg):
    engine._last_scenario.clear()
    return evaluate(policy, net, hist, cfg).z


def reference_z(policy, net, hist, cfg):
    outcomes = [reference_sim_network(net, policy, hist, cfg, n)
                for n in range(1, cfg.replications + 1)]
    return aggregate_outcomes(outcomes, net.targets, cfg.penalty_rho,
                              policy).z


def count_generators(monkeypatch):
    built = []
    original = sampling.StreamKey.generator

    def counting(key):
        built.append(key)
        return original(key)
    monkeypatch.setattr(sampling.StreamKey, "generator", counting)
    return built


class TestScenarioCache:
    """Draw tables are kept per scenario; a warm cache changes no result."""

    @pytest.mark.parametrize("change", sorted(SCENARIO_CHANGES))
    def test_interleaved_scenarios_match_cold_runs(self, change):
        net, hist, cfg, policy = cache_scenario()
        a = (net, hist, cfg)
        b = SCENARIO_CHANGES[change](*a)
        want = {"a": cold_z(policy, *a), "b": cold_z(policy, *b)}
        assert want["a"] == reference_z(policy, *a)
        assert want["b"] == reference_z(policy, *b)
        if change != "equal-content history":
            assert want["a"] != want["b"]
        engine._last_scenario.clear()
        for name, scenario in (("a", a), ("b", b), ("a", a)):
            assert evaluate(policy, *scenario).z == want[name]
            assert_matches_reference(scenario[0], policy, scenario[1],
                                     scenario[2], 2, trace=True, events=True)

    @pytest.mark.parametrize("change", [
        {"demand_choice": DemandChoice.LOST_SALES},
        {"penalty_rho": 25.0},
        {"initial_inventory_fraction": 0.3},
        {"replications": 1},
        {"replications": 5},
    ])
    def test_settings_outside_the_key_reuse_the_draws(self, change,
                                                      monkeypatch):
        net, hist, cfg, policy = cache_scenario()
        other = replace(cfg, **change)
        want = cold_z(policy, net, hist, other)
        engine._last_scenario.clear()
        evaluate(policy, net, hist, cfg)
        built = count_generators(monkeypatch)
        assert evaluate(policy, net, hist, other).z == want
        new_replications = max(0, other.replications - cfg.replications)
        streams = len(net.customer_ids) + len(net.ids)
        assert len(built) == new_replications * streams

    def test_each_stream_is_built_once_per_scenario(self, monkeypatch):
        net, hist, cfg, policy = cache_scenario()
        engine._last_scenario.clear()
        built = count_generators(monkeypatch)
        for rop in (0, 10, 20, 30):
            evaluate(replace(policy, reorder_point={**policy.reorder_point,
                                                    "east": rop}),
                     net, hist, cfg)
        streams = len(net.customer_ids) + len(net.ids)
        assert len(built) == cfg.replications * streams
        assert len(set(built)) == len(built)

    def test_value_equal_network_reuses_the_draws(self, monkeypatch):
        # the cache looks the network up by identity first, but keys it
        # by value: an equal network built anew draws nothing
        net, hist, cfg, policy = cache_scenario()
        engine._last_scenario.clear()
        want = evaluate(policy, net, hist, cfg)
        anew = NetworkSpec([replace(f) for f in net.facilities])
        assert anew == net and anew is not net
        built = count_generators(monkeypatch)
        assert evaluate(policy, anew, hist, cfg) == want
        assert built == []

    def test_invalid_inputs_raise_on_every_call(self):
        net, hist, cfg, policy = cache_scenario()
        broken = NetworkSpec([
            replace(f, upstream="nowhere") if f.id == "west" else f
            for f in net.facilities])
        uncovered = HistoryDataset(
            demand=hist.demand,
            lead_delta={k: v for k, v in hist.lead_delta.items()
                        if k != "west"})
        for _ in range(2):
            with pytest.raises(NetworkValidationError):
                sim_network(broken, policy, hist, cfg, 1)
            with pytest.raises(ValueError, match="^no lead-delta history "
                               "for facility west$"):
                sim_network(net, policy, uncovered, cfg, 1)
            sim_network(net, policy, hist, cfg, 1)


class TestEventConventions:
    def test_zero_lead_lands_next_morning(self):
        # Ordered and shipped on day 1 with lead 0: the ship event says
        # arrival_day 1, but day 1's arrivals phase has run, so the goods
        # arrive on day 2.
        net = single_facility(base_lead=0)
        pol = PolicyVector({"store": 80}, {"store": 100})
        hist = constant_history(net, demand=10)
        cfg = ScenarioConfig(horizon=3, replications=1, base_seed=1)
        out = sim_network(net, pol, hist, cfg, 1, record_trace=True,
                          record_events=True)
        ships = [e for e in out.events if e[3] == "ship"]
        arrives = [e for e in out.events if e[3] == "arrive"]
        assert ships[0][1] == 1 and ships[0][4]["arrival_day"] == 1
        assert arrives[0][1] == 2
        assert arrives[0][4]["order_id"] == ships[0][4]["order_id"]
        assert out.trace["store"]["on_hand"][:2] == [80, 90]

    def test_shipment_due_after_horizon_never_arrives(self):
        net = single_facility(base_lead=5)
        pol = PolicyVector({"store": 95}, {"store": 100})
        hist = constant_history(net, demand=10)
        cfg = ScenarioConfig(horizon=3, replications=1, base_seed=1)
        out = sim_network(net, pol, hist, cfg, 1, record_events=True)
        ships = [e for e in out.events if e[3] == "ship"]
        assert ships and all(e[4]["arrival_day"] > 3 for e in ships)
        assert not [e for e in out.events if e[3] == "arrive"]
        assert out.final_on_hand["store"] == 90 - 3 * 10

    def test_arrivals_in_network_order_then_creation_order(self):
        # "b" ships on day 1 and "a" on day 2, both landing on day 4:
        # "a" comes first in the network, so it arrives first.
        net = NetworkSpec([
            FacilitySpec("a", SOURCE, 2, 0.5, True),
            FacilitySpec("b", SOURCE, 3, 0.5, True),
        ])
        pol = PolicyVector({"a": 80, "b": 95}, {"a": 100, "b": 100})
        hist = HistoryDataset(demand={"a": [5], "b": [0]},
                              lead_delta={"a": [0], "b": [0]})
        cfg = ScenarioConfig(horizon=4, replications=1, base_seed=1)
        out = sim_network(net, pol, hist, cfg, 1, record_events=True)
        created = {e[4]["order_id"]: e[1] for e in out.events
                   if e[3] == "ship"}
        arrivals = [(e[2], created[e[4]["order_id"]])
                    for e in out.events if e[3] == "arrive"]
        assert arrivals == [("a", 2), ("b", 1)]

    def test_blocked_head_grabbing_nothing_emits_zero_reserve(self):
        # Both start empty.  The hub's own day-1 order lands on day 6; the
        # store's day-1 order reaches the head of the hub's queue on day
        # 2, grabs 0 units and blocks until then.
        net = chain(base_lead_hub=5, base_lead_store=1)
        pol = PolicyVector({"hub": 0, "store": 40},
                           {"hub": 100, "store": 50})
        hist = constant_history(net, demand=10)
        cfg = ScenarioConfig(horizon=8, replications=1, base_seed=1,
                             initial_inventory_fraction=0.0)
        out = sim_network(net, pol, hist, cfg, 1, record_events=True)
        reserves = [e for e in out.events if e[3] == "reserve"]
        assert [(day, fid, data) for _, day, fid, _, data in reserves] == [
            (2, "hub", {"order_id": 1, "quantity": 0})]
        hub_ships = [e[1] for e in out.events
                     if e[3] == "ship" and e[2] == "hub"]
        assert hub_ships[0] == 6


def count_compiles(monkeypatch):
    compiled = []

    def counting(source, *args):
        compiled.append(source)
        return compile(source, *args)
    monkeypatch.setattr(engine, "compile", counting, raising=False)
    return compiled


class TestDayLoopCache:
    """One compiled loop per (topology, demand choice, recorders), and
    the cache holds nothing else."""

    def test_one_compile_per_key(self, monkeypatch):
        net, hist, cfg, policy = cache_scenario()
        engine._day_loop.cache_clear()
        compiled = count_compiles(monkeypatch)
        keys = list(product(DemandChoice, (False, True), (False, True)))
        for _ in range(2):
            for choice, trace, events in keys:
                for rep in (1, 2):
                    sim_network(net, policy, hist,
                                replace(cfg, demand_choice=choice), rep,
                                record_trace=trace, record_events=events)
        assert len(compiled) == len(set(compiled)) == len(keys)
        assert engine._day_loop.cache_info().currsize == len(keys)

    def test_value_equal_network_reuses_the_loop(self, monkeypatch):
        net, hist, cfg, policy = cache_scenario()
        sim_network(net, policy, hist, cfg, 1)
        compiled = count_compiles(monkeypatch)
        anew = NetworkSpec([replace(f) for f in net.facilities])
        assert anew == net and anew is not net
        sim_network(anew, policy, hist, cfg, 1)
        # the key holds positions only: other lead times, the same loop
        sim_network(other_network(net, hist, cfg)[0], policy, hist, cfg, 1)
        assert compiled == []

    def test_new_history_objects_neither_grow_the_cache_nor_live_on(
            self, monkeypatch):
        # compare reads its history anew for every run
        net, hist, cfg, policy = cache_scenario()
        engine._day_loop.cache_clear()
        compiled = count_compiles(monkeypatch)
        alive = []
        for _ in range(20):
            fresh = equal_history(net, hist, cfg)[1]
            evaluate(policy, net, fresh, cfg)
            alive.append(weakref.ref(fresh))
        del fresh
        assert len(compiled) == 1
        assert engine._day_loop.cache_info().currsize == 1
        engine._last_scenario.clear()
        gc.collect()
        assert [ref for ref in alive if ref() is not None] == []

    def test_cache_is_bounded(self):
        engine._day_loop.cache_clear()
        size = engine._day_loop.cache_info().maxsize
        # distinct six-facility topologies: each picks SOURCE or an
        # earlier facility as every facility's upstream
        topologies = product(*(range(-1, i) for i in range(6)))
        for upstream in islice(topologies, size + 2):
            engine._day_loop(upstream, False, False, False)
        assert engine._day_loop.cache_info().currsize == size

    def test_config_strings_never_reach_the_source(self, monkeypatch):
        # Facility ids come from config files.  Ids that would break or
        # change generated source simulate like plain ids, and the events
        # carry them as given.
        odd = ['q"uo\'te', "back\\slash", "new\nline", "{braces}", "class",
               "Ünïcødé→"]
        plain = [f"p{i}" for i in range(len(odd))]

        def scenario(ids):
            net = NetworkSpec([
                FacilitySpec(ids[0], SOURCE, 2, 0.0, False),
                FacilitySpec(ids[1], ids[0], 1, 0.9, True),
                FacilitySpec(ids[2], ids[0], 0, 0.0, False),
                FacilitySpec(ids[3], ids[2], 3, 0.8, True),
                FacilitySpec(ids[4], SOURCE, 1, 0.9, True),
                FacilitySpec(ids[5], ids[2], 1, 0.7, True)])
            # one sample per series, so no draw depends on a stream's id
            hist = HistoryDataset(
                demand={fid: [3 + i] for i, fid in enumerate(ids)
                        if fid in net.customer_ids},
                lead_delta={fid: [i % 3] for i, fid in enumerate(ids)})
            pol = PolicyVector(dict(zip(ids, (40, 10, 15, 8, 12, 6))),
                               dict(zip(ids, (90, 30, 40, 20, 30, 14))))
            return net, pol, hist

        engine._day_loop.cache_clear()
        compiled = count_compiles(monkeypatch)
        rename = {**dict(zip(odd, plain)), SOURCE: SOURCE}
        for choice in DemandChoice:
            cfg = ScenarioConfig(horizon=30, replications=1, base_seed=4,
                                 demand_choice=choice)
            got, want = (sim_network(net, pol, hist, cfg, 1,
                                     record_trace=True, record_events=True)
                         for net, pol, hist in map(scenario, (odd, plain)))
            for name in ("avg_on_hand", "beta", "total_shipped",
                         "final_on_hand", "trace"):
                assert {rename[k]: v for k, v in
                        getattr(got, name).items()} == getattr(want, name)
            assert [(day, rename[fid], kind,
                     {k: rename[v] if k in ("destination", "upstream")
                      else v for k, v in data.items()})
                     for _, day, fid, kind, data in got.events] == [
                         event[1:] for event in want.events]
            assert {e[2] for e in got.events} == {*odd, SOURCE}
            net, pol, hist = scenario(odd)
            assert_matches_reference(net, pol, hist, cfg, 1, True, True)
        assert compiled and not any(fid in source for fid in odd
                                    for source in compiled)
