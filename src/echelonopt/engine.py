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

Implementation.  One replication is a single flat day loop over
per-facility lists indexed by network position; there are no per-facility
objects and no helper calls inside the loop.

* Shipments are filed in an arrival calendar, one list per day, at the
  day they land; a shipment that lands after the horizon is never filed.
  The arrivals phase reads one list instead of scanning every facility's
  pending shipments.  Each list holds its shipments in creation order, so
  a stable sort by destination gives the event order: network order,
  then creation order.
* Each order queue is a deque of ``[quantity, requester, order_id,
  reserved]`` records; ``reserved`` is None until the order first reaches
  the head of the queue.
* Random draws are prefetched per replication.  Demand for the whole
  horizon is drawn up front from each customer facility's stream.  Each
  facility's lead deltas are drawn as one block of ``horizon`` values
  from its own lead stream, and its i-th incoming shipment takes the
  block's i-th value.  A block draw ``integers(0, n, size=k)`` yields the
  same values as k scalar draws ``integers(0, n)`` from the same
  generator, and every stream is private to one (replication, facility,
  purpose), so the common random numbers are the ones a draw per shipment
  would give.  A facility places at most one order per day, so it
  receives at most ``horizon`` shipments and the block never runs out.

One replication is strictly sequential and deterministic in
(network, policy, history, base_seed, replication); distinct
replications use disjoint random streams and may run in parallel.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import itemgetter

from .model import (
    SOURCE,
    DemandChoice,
    HistoryDataset,
    NetworkSpec,
    PolicyVector,
    ScenarioConfig,
)
from .sampling import StreamKey, StreamPurpose, bootstrap_draw_array
# Unused here, but bench/tracing.py wraps engine.bootstrap_draw to count
# scalar lead draws, so the name stays bound.
from .sampling import bootstrap_draw  # noqa: F401

_DESTINATION = itemgetter(0)


class InvalidPolicyError(ValueError):
    """Policy does not cover the network or violates B >= R >= 0."""


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
    lost_sales = choice is DemandChoice.LOST_SALES
    n = len(ids)
    position_of = {fid: i for i, fid in enumerate(ids)}
    upstream = [-1 if f.upstream == SOURCE else position_of[f.upstream]
                for f in network.facilities]
    upstream_name = [f.upstream for f in network.facilities]
    suppliers = sorted(set(upstream) - {-1})
    reorder_point = [policy.reorder_point[fid] for fid in ids]
    base_stock = [policy.base_stock[fid] for fid in ids]

    on_hand = [int(round(config.initial_inventory_fraction * b))
               for b in base_stock]
    position = list(on_hand)
    backorders = [0] * n
    total_demand = [0] * n
    total_shipped = [0] * n
    total_late = [0] * n
    on_hand_sum = [0] * n
    queues = [deque() for _ in ids]
    calendar: list[list[tuple[int, int, int]]] = [
        [] for _ in range(horizon + 1)]

    customers = []
    for fid in network.customer_ids:
        rng = StreamKey(config.base_seed, replication_index, fid,
                        StreamPurpose.DEMAND).generator()
        demand_by_day = bootstrap_draw_array(history.demand[fid], rng,
                                             horizon).tolist()
        customers.append((position_of[fid], demand_by_day))
        total_demand[position_of[fid]] = sum(demand_by_day)
    next_lead = []
    for f in network.facilities:
        rng = StreamKey(config.base_seed, replication_index, f.id,
                        StreamPurpose.LEAD).generator()
        deltas = bootstrap_draw_array(history.lead_delta[f.id], rng, horizon)
        next_lead.append(iter((deltas + f.base_lead_time).tolist()).__next__)

    events: list[tuple] | None = [] if record_events else None
    daily: dict[str, dict[str, list]] | None = None
    if record_trace:
        daily = {fid: {"on_hand": [], "inv_position": [], "backorders": [],
                       "demand": [], "shipped": []} for fid in ids}
    noncustomer = set(range(n)) - {f for f, _ in customers}

    next_order_id = 0
    for day in range(1, horizon + 1):
        # Phase 1: arrivals
        arriving = calendar[day]
        if arriving:
            if events is not None:
                arriving.sort(key=_DESTINATION)
            for dest, quantity, order_id in arriving:
                on_hand[dest] += quantity
                if events is not None:
                    events.append((len(events), day, ids[dest], "arrive",
                                   {"order_id": order_id,
                                    "quantity": quantity}))

        # Phase 2: customer service
        for f, demand_by_day in customers:
            demand = demand_by_day[day - 1]
            stock = on_hand[f]
            if lost_sales:
                shipped = demand if demand < stock else stock
            else:
                wanted = demand + backorders[f]
                if wanted <= stock:
                    shipped = wanted
                    backorders[f] = 0
                else:
                    shipped = stock
                    backorders[f] = wanted - stock
                    if demand > stock:
                        total_late[f] += demand - stock
            total_shipped[f] += shipped
            on_hand[f] = stock - shipped
            position[f] -= shipped
            if events is not None:
                events.append((len(events), day, ids[f], "serve",
                               {"demand": demand, "shipped": shipped}))
            if daily is not None:
                daily[ids[f]]["demand"].append(demand)
                daily[ids[f]]["shipped"].append(shipped)

        # Phase 3: replenishment fulfillment
        for f in suppliers:
            queue = queues[f]
            if not queue:
                continue
            stock = on_hand[f]
            taken = 0
            while queue:
                order = queue[0]
                quantity, dest, order_id, reserved = order
                if reserved is None:
                    # First touch: grab what is on hand, once.
                    grabbed = quantity if quantity < stock else stock
                    stock -= grabbed
                    taken += grabbed
                    if grabbed < quantity:
                        order[3] = grabbed
                        if events is not None:
                            events.append((len(events), day, ids[f],
                                           "reserve",
                                           {"order_id": order_id,
                                            "quantity": grabbed}))
                        break
                else:
                    remainder = quantity - reserved
                    if stock < remainder:
                        break
                    stock -= remainder
                    taken += remainder
                queue.popleft()
                lead = next_lead[dest]()
                land = day + lead if lead else day + 1
                if land <= horizon:
                    calendar[land].append((dest, quantity, order_id))
                if events is not None:
                    events.append((len(events), day, ids[f], "ship",
                                   {"order_id": order_id,
                                    "quantity": quantity,
                                    "destination": ids[dest],
                                    "arrival_day": day + lead}))
            on_hand[f] = stock
            position[f] -= taken

        # Phase 4: order placement, then the end-of-day record.  An order
        # changes only the orderer's own position, so recording each
        # facility right after its ordering step sees end-of-day values.
        for f in range(n):
            if position[f] <= reorder_point[f]:
                quantity = base_stock[f] - on_hand[f]
                if quantity > 0:
                    order_id = next_order_id
                    next_order_id += 1
                    position[f] += quantity
                    up = upstream[f]
                    if events is not None:
                        events.append((len(events), day, ids[f], "order",
                                       {"order_id": order_id,
                                        "quantity": quantity,
                                        "upstream": upstream_name[f]}))
                    if up >= 0:
                        queues[up].append([quantity, f, order_id, None])
                    else:
                        # SOURCE never queues: unbounded stock, no wait.
                        lead = next_lead[f]()
                        land = day + lead if lead else day + 1
                        if land <= horizon:
                            calendar[land].append((f, quantity, order_id))
                        if events is not None:
                            events.append((len(events), day, SOURCE, "ship",
                                           {"order_id": order_id,
                                            "quantity": quantity,
                                            "destination": ids[f],
                                            "arrival_day": day + lead}))
            on_hand_sum[f] += on_hand[f]
            if daily is not None:
                column = daily[ids[f]]
                column["on_hand"].append(on_hand[f])
                column["inv_position"].append(position[f])
                column["backorders"].append(backorders[f])
                if f in noncustomer:
                    column["demand"].append(0)
                    column["shipped"].append(0)

    return SimulationOutcome(
        avg_on_hand={fid: on_hand_sum[i] / horizon
                     for i, fid in enumerate(ids)},
        beta={fid: _beta(choice, total_demand[i], total_shipped[i],
                         total_late[i]) for i, fid in enumerate(ids)},
        total_demand=dict(zip(ids, total_demand)),
        total_shipped=dict(zip(ids, total_shipped)),
        total_late=dict(zip(ids, total_late)),
        final_backorders=dict(zip(ids, backorders)),
        final_on_hand=dict(zip(ids, on_hand)),
        trace=daily,
        events=events,
    )
