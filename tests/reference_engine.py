# Reference simulator for the differential tests in test_engine.py: the
# object-per-facility engine that echelonopt.engine replaced, kept as it
# was apart from its imports.  It is the oracle, so leave it unoptimized.
"""Discrete-event simulator for the multi-echelon inventory network.

Time advances in whole days.  Each day runs four phases, in this order,
for every facility (facilities iterate in network order within a phase):

1. arrivals     -- pending shipments due today are added to on-hand stock
2. customers    -- customer-facing facilities serve bootstrapped demand
3. fulfillment  -- facilities ship queued downstream replenishment orders
4. ordering     -- facilities whose inventory position has fallen to the
                   reorder point place an order upstream

Customer service deliberately runs before replenishment fulfillment (the
customer always wins a same-day race for stock), and ordering runs last
so it sees the day's final inventory position.

Replenishment mechanics:

* Order quantity is base stock minus current *on-hand* stock, placed when
  the inventory *position* reaches the reorder point.  Nonpositive
  quantities are silently skipped so any repaired policy is simulable.
* A facility's order queue is strict FIFO with head-of-line blocking: the
  head order grabs whatever stock is available once, then waits until the
  full remainder is on hand.  Orders are never partially shipped; each
  delivery carries exactly the originally ordered quantity.
* Shipping draws a lead time of the destination's base lead time plus a
  bootstrapped delta; the goods arrive in the arrivals phase of
  creation_day + lead (a zero lead therefore lands next morning, since
  the arrivals phase of the creation day has already run).
* Orders sent to SOURCE skip queueing entirely: SOURCE has unbounded
  stock and ships the moment the order is placed.

One replication is strictly sequential and deterministic in
(network, policy, history, base_seed, replication); distinct
replications use disjoint random streams and may run in parallel.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from echelonopt.model import (
    SOURCE,
    DemandChoice,
    HistoryDataset,
    NetworkSpec,
    PolicyVector,
    ScenarioConfig,
)
from echelonopt.sampling import StreamKey, StreamPurpose, bootstrap_draw


class InvalidPolicyError(ValueError):
    """Policy does not cover the network or violates B >= R >= 0."""


@dataclass
class ReplenishmentOrder:
    """A downstream replenishment request sitting in an upstream queue.

    ``reserved`` tracks head-of-line progress: None until the order is
    first touched by the fulfillment phase, then the stock amount already
    pulled aside for it.
    """

    quantity: int
    requester: str
    day_placed: int
    order_id: int
    reserved: int | None = None


@dataclass
class PendingShipment:
    """Goods in transit; delivered in the arrivals phase of arrival_day."""

    quantity: int
    destination: str
    created_day: int
    arrival_day: int
    order_id: int


@dataclass
class FacilityState:
    """Mutable per-facility simulation state."""

    on_hand: int = 0
    inv_position: int = 0
    backorders: int = 0
    total_demand: int = 0
    total_shipped: int = 0
    total_late: int = 0
    order_queue: deque = field(default_factory=deque)
    on_hand_trace: list = field(default_factory=list)


@dataclass(frozen=True)
class SimulationOutcome:
    """Per-facility results of one replication."""

    avg_on_hand: dict[str, float]
    beta: dict[str, float]
    total_demand: dict[str, int]
    total_shipped: dict[str, int]
    total_late: dict[str, int]
    final_backorders: dict[str, int]
    final_on_hand: dict[str, int]
    trace: dict[str, dict[str, list]] | None = None
    events: list | None = None


def place_order(state: FacilityState, reorder_point: int, base_stock: int,
                upstream_queue: deque, requester: str, day: int,
                order_id: int) -> ReplenishmentOrder | None:
    """Ordering-phase step for one facility on one day.

    Triggers on inventory position <= reorder point; the quantity tops
    on-hand stock up to base stock.  Returns the enqueued order, or None
    when no order was placed (including the q <= 0 skip).
    """
    if state.inv_position > reorder_point:
        return None
    quantity = base_stock - state.on_hand
    if quantity <= 0:
        return None
    order = ReplenishmentOrder(quantity, requester, day, order_id)
    upstream_queue.append(order)
    state.inv_position += quantity
    return order


def serve_customer(state: FacilityState, demand: int,
                   choice: DemandChoice) -> int:
    """Customer-phase step: serve one day's (already drawn) demand.

    Lost sales ship min(demand, on hand); backorder mode also works off
    the backlog and counts today's unmet demand as late.  Returns the
    quantity shipped.
    """
    state.total_demand += demand
    if choice is DemandChoice.LOST_SALES:
        shipped = min(demand, state.on_hand)
    else:
        shipped = min(demand + state.backorders, state.on_hand)
        unmet = demand - shipped
        state.backorders += unmet
        if unmet > 0:
            state.total_late += unmet
    state.total_shipped += shipped
    state.on_hand -= shipped
    state.inv_position -= shipped
    return shipped


def fulfill_orders(state: FacilityState, day: int,
                   ship: Callable[[ReplenishmentOrder, int], None]) -> None:
    """Fulfillment-phase step: drain the FIFO queue until it blocks.

    Each order is first-touched exactly once: it immediately reserves
    min(quantity, on hand).  A positive remainder then blocks the queue
    until the facility holds the full remainder, which is reserved in one
    chunk.  Completed orders are handed to ``ship`` and the next order is
    considered the same day.
    """
    queue = state.order_queue
    while queue:
        order = queue[0]
        if order.reserved is None:
            grabbed = min(order.quantity, state.on_hand)
            state.on_hand -= grabbed
            state.inv_position -= grabbed
            order.reserved = grabbed
        remainder = order.quantity - order.reserved
        if remainder > 0:
            if state.on_hand < remainder:
                break
            state.on_hand -= remainder
            state.inv_position -= remainder
            order.reserved = order.quantity
        queue.popleft()
        ship(order, day)


def _beta(choice: DemandChoice, demand: int, shipped: int, late: int) -> float:
    if demand == 0:
        return 1.0
    if choice is DemandChoice.LOST_SALES:
        return shipped / demand
    return 1.0 - late / demand


def sim_network(network: NetworkSpec, policy: PolicyVector,
                history: HistoryDataset, config: ScenarioConfig,
                replication_index: int, *, record_trace: bool = False,
                record_events: bool = False) -> SimulationOutcome:
    """Run one replication over the full horizon.

    Initial state is on_hand = inv_position = round(fraction * base
    stock) with empty queues and zero counters.  Returns average end-of-
    day on-hand stock and the fill rate per facility (facilities that saw
    no demand report a fill rate of 1).
    """
    network.require_valid()
    ids = network.ids
    for fid in ids:
        if fid not in policy.reorder_point:
            raise InvalidPolicyError(f"policy missing facility {fid}")
    history.require_covers(network)

    horizon = config.horizon
    choice = config.demand_choice
    customer_ids = network.customer_ids
    states: dict[str, FacilityState] = {}
    pending: dict[str, list[PendingShipment]] = {fid: [] for fid in ids}
    base_lead = {f.id: f.base_lead_time for f in network.facilities}
    upstream = {f.id: f.upstream for f in network.facilities}

    for fid in ids:
        start = int(round(config.initial_inventory_fraction
                          * policy.base_stock[fid]))
        states[fid] = FacilityState(on_hand=start, inv_position=start)

    # Demand for the whole horizon is drawn up front (one stream call per
    # facility); lead deltas are drawn per shipment from their own stream.
    demand_by_day: dict[str, np.ndarray] = {}
    for fid in network.customer_ids:
        rng = StreamKey(config.base_seed, replication_index, fid,
                        StreamPurpose.DEMAND).generator()
        demand_by_day[fid] = bootstrap_draw(history.demand[fid], rng, horizon)
    lead_rng = {
        fid: StreamKey(config.base_seed, replication_index, fid,
                       StreamPurpose.LEAD).generator()
        for fid in ids
    }

    events: list[tuple] | None = [] if record_events else None
    seq = 0

    def emit(kind: str, day: int, fid: str, **data):
        nonlocal seq
        events.append((seq, day, fid, kind, data))
        seq += 1

    daily: dict[str, dict[str, list]] | None = None
    if record_trace:
        daily = {fid: {"on_hand": [], "inv_position": [], "backorders": [],
                       "demand": [], "shipped": []} for fid in ids}

    next_order_id = 0

    def create_shipment(order: ReplenishmentOrder, day: int,
                        shipper: str) -> None:
        dest = order.requester
        delta = bootstrap_draw(history.lead_delta[dest], lead_rng[dest])
        lead = base_lead[dest] + delta
        shipment = PendingShipment(order.quantity, dest, day, day + lead,
                                   order.order_id)
        pending[dest].append(shipment)
        if events is not None:
            emit("ship", day, shipper, order_id=order.order_id,
                 quantity=order.quantity, destination=dest,
                 arrival_day=day + lead)

    for day in range(1, horizon + 1):
        # Phase 1: arrivals
        for fid in ids:
            plist = pending[fid]
            if not plist:
                continue
            due = [s for s in plist if s.arrival_day <= day]
            if due:
                pending[fid] = [s for s in plist if s.arrival_day > day]
                for s in due:
                    states[fid].on_hand += s.quantity
                    if events is not None:
                        emit("arrive", day, fid, order_id=s.order_id,
                             quantity=s.quantity)

        # Phase 2: customer service
        for fid in customer_ids:
            demand = int(demand_by_day[fid][day - 1])
            shipped = serve_customer(states[fid], demand, choice)
            if events is not None:
                emit("serve", day, fid, demand=demand, shipped=shipped)
            if daily is not None:
                daily[fid]["demand"].append(demand)
                daily[fid]["shipped"].append(shipped)

        # Phase 3: replenishment fulfillment
        for fid in ids:
            state = states[fid]
            if not state.order_queue:
                continue
            if events is not None:
                before = {o.order_id: o.reserved for o in state.order_queue}
            fulfill_orders(state, day,
                           lambda order, d, shipper=fid:
                           create_shipment(order, d, shipper))
            if events is not None:
                for o in state.order_queue:
                    prior = before.get(o.order_id)
                    if o.reserved is not None and o.reserved != prior:
                        emit("reserve", day, fid, order_id=o.order_id,
                             quantity=o.reserved - (prior or 0))

        # Phase 4: order placement
        for fid in ids:
            state = states[fid]
            up = upstream[fid]
            rop = policy.reorder_point[fid]
            base = policy.base_stock[fid]
            if up == SOURCE:
                if state.inv_position <= rop:
                    quantity = base - state.on_hand
                    if quantity > 0:
                        order = ReplenishmentOrder(quantity, fid, day,
                                                   next_order_id)
                        next_order_id += 1
                        state.inv_position += quantity
                        if events is not None:
                            emit("order", day, fid, order_id=order.order_id,
                                 quantity=quantity, upstream=SOURCE)
                        # SOURCE never queues: unbounded stock, no wait.
                        create_shipment(order, day, SOURCE)
            else:
                order = place_order(state, rop, base,
                                    states[up].order_queue, fid, day,
                                    next_order_id)
                if order is not None:
                    next_order_id += 1
                    if events is not None:
                        emit("order", day, fid, order_id=order.order_id,
                             quantity=order.quantity, upstream=up)

        for fid in ids:
            states[fid].on_hand_trace.append(states[fid].on_hand)
            if daily is not None:
                daily[fid]["on_hand"].append(states[fid].on_hand)
                daily[fid]["inv_position"].append(states[fid].inv_position)
                daily[fid]["backorders"].append(states[fid].backorders)
                if fid not in customer_ids:
                    daily[fid]["demand"].append(0)
                    daily[fid]["shipped"].append(0)

    avg_on_hand = {fid: sum(states[fid].on_hand_trace) / horizon
                   for fid in ids}
    beta = {fid: _beta(choice, states[fid].total_demand,
                       states[fid].total_shipped, states[fid].total_late)
            for fid in ids}
    return SimulationOutcome(
        avg_on_hand=avg_on_hand,
        beta=beta,
        total_demand={fid: states[fid].total_demand for fid in ids},
        total_shipped={fid: states[fid].total_shipped for fid in ids},
        total_late={fid: states[fid].total_late for fid in ids},
        final_backorders={fid: states[fid].backorders for fid in ids},
        final_on_hand={fid: states[fid].on_hand for fid in ids},
        trace=daily,
        events=events,
    )
