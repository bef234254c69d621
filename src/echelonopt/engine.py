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
* The inventory position is on-hand stock plus every undelivered order
  (queued upstream or in transit).  Under backorders the customer
  backlog does *not* lower it: a facility with a backlog reorders only
  once on-hand plus on-order stock falls to the reorder point, and the
  order size ignores the backlog too.
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
objects, and no helper calls inside the loop but ``emit`` while the
event log is on; as in the oracle ``tests/reference_engine.py``, it
builds every event, and the trace is one row per facility-day.  State
changes only when stock moves, and exact integer identities give the rest:

* The ordering test reads ``trigger = reorder_point - on_order``, which
  changes only when an order is placed (``-= q``) or lands (``+= q``):
  the position reaches the reorder point exactly when ``on_hand <=
  trigger``.  The trace's inventory position is ``on_hand +
  reorder_point - trigger``.
* The sum of end-of-day on-hand stock is ``held``: ``horizon x start``
  plus ``q x (horizon + 1 - d)`` for every change ``q`` on day ``d``.
  Each customer's demand would subtract ``W = sum of demand_d x (horizon
  + 1 - d)``, so ``held`` starts at ``horizon x start - W``; an arrival
  adds ``q x w``, a supplier's shipments subtract ``taken x w``, and a
  short customer day adds back ``(demand - shipped) x w``, where ``w =
  horizon + 1 - day``.  ``avg_on_hand`` is ``held / horizon``.
* An ordinary customer day (demand in stock, no backlog) is therefore
  one store.  A short day adds ``demand - stock`` to ``short``: the late
  units under backorders, the lost sales otherwise.  Shipped totals are
  ``total_demand - final_backorders`` under backorders and
  ``total_demand - short`` under lost sales.
* Shipments are filed in an arrival calendar, one list per day, at the
  day they land; a shipment that lands after the horizon is never filed.
  The arrivals phase reads one list instead of scanning every facility's
  pending shipments.  Each list holds its shipments in creation order, so
  a stable sort by destination gives the event order: network order,
  then creation order.
* Each order queue is a deque of ``[quantity, requester, order_id,
  reserved]`` records; ``reserved`` is None until the order first reaches
  the head of the queue.
* Random draws are made once per scenario.  Under common random numbers
  every draw is fixed by (base_seed, replication, facility, purpose) and
  none depends on the policy, so ``_prepare`` builds a ``_Scenario``
  from (network, history, horizon, base_seed): it validates the network
  and the history, builds the integer indices and, per replication,
  draws each customer facility's demand for the whole horizon and each
  facility's lead times (base lead time plus a bootstrapped delta) as
  one block of ``horizon`` values.  A facility's i-th incoming shipment
  takes its block's i-th value.  A block draw ``integers(0, n, size=k)``
  yields the same values as k scalar draws ``integers(0, n)`` from the
  same generator, and every stream is private to one (replication,
  facility, purpose), so the common random numbers are the ones a draw
  per shipment would give.  A facility places at most one order per
  day, so it receives at most ``horizon`` shipments and the block never
  runs out.
* Only the most recent scenario is held.  Its key is the network by
  value, the history by identity (``HistoryDataset`` is immutable), the
  horizon and the base seed; demand choice, penalty, initial fraction
  and replication count change no draw and are not part of it.
  ``_prepare`` tests the network by identity first and compares it by
  value only when another object was passed, so the replications of one
  evaluation, which pass one network object, never hash or compare the
  facilities; a value-equal network built anew still reuses the draws.
  Each replication's tables are drawn the first time it is simulated and
  then kept: replications x (customers + facilities) x horizon ints,
  64,800 on the bundled preset, plus each customer's weighted demand
  ``W``.  An invalid network or uncovered history is never cached, so it
  raises on every call.

One replication is strictly sequential and deterministic in
(network, policy, history, base_seed, replication); distinct
replications use disjoint random streams and may run in parallel.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter

from .model import (
    SOURCE,
    DemandChoice,
    HistoryDataset,
    NetworkSpec,
    PolicyVector,
    ScenarioConfig,
    whole_number,
)
from .sampling import StreamKey, StreamPurpose, bootstrap_draw

_DESTINATION = itemgetter(0)
TRACE_COLUMNS = ("on_hand", "inv_position", "backorders", "demand", "shipped")


class InvalidPolicyError(ValueError):
    """The policy misses a facility; PolicyVector checks B >= R >= 0."""


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


class _Scenario:
    """The policy-independent part of a replication: indices and draws."""

    def __init__(self, network: NetworkSpec, history: HistoryDataset,
                 horizon: int, base_seed: int):
        network.require_valid()
        history.require_covers(network)
        self.network, self.history = network, history
        self.horizon, self.base_seed = horizon, base_seed
        self.ids = ids = network.ids
        position_of = {fid: i for i, fid in enumerate(ids)}
        self.upstream = tuple(-1 if f.upstream == SOURCE
                              else position_of[f.upstream]
                              for f in network.facilities)
        self.suppliers = tuple(sorted(set(self.upstream) - {-1}))
        self.customers = tuple(position_of[fid]
                               for fid in network.customer_ids)
        self._draws: dict[int, tuple] = {}

    def draws(self, replication: int) -> tuple:
        """A (position, demand by day from 1) pair per customer, then
        demand total, weighted demand ``W`` and lead times per facility."""
        tables = self._draws.get(replication)
        if tables is None:
            tables = self._draws[replication] = self._draw(replication)
        return tables

    def _draw(self, replication: int) -> tuple:
        history, horizon = self.history, self.horizon
        customers = []
        total_demand = [0] * len(self.ids)
        weighted_demand = [0] * len(self.ids)
        for i, fid in zip(self.customers, self.network.customer_ids):
            rng = StreamKey(self.base_seed, replication, fid,
                            StreamPurpose.DEMAND).generator()
            drawn = bootstrap_draw(history.demand[fid], rng, horizon)
            demand_by_day = (0, *drawn.tolist())
            customers.append((i, demand_by_day))
            total_demand[i] = sum(demand_by_day)
            # day d's demand is in horizon + 1 - d running totals; Python
            # ints, so W cannot overflow
            weighted_demand[i] = sum(accumulate(demand_by_day))
        leads = []
        for f in self.network.facilities:
            rng = StreamKey(self.base_seed, replication, f.id,
                            StreamPurpose.LEAD).generator()
            deltas = bootstrap_draw(history.lead_delta[f.id], rng, horizon)
            # Python ints, so a huge base lead time cannot wrap
            leads.append(tuple(map(f.base_lead_time.__add__,
                                   deltas.tolist())))
        return (tuple(customers), tuple(total_demand), tuple(weighted_demand),
                tuple(leads))


_last_scenario: list[_Scenario] = []  # the most recent scenario, if any


def _prepare(network: NetworkSpec, history: HistoryDataset, horizon: int,
             base_seed: int) -> _Scenario:
    """The scenario for this key: the last one if it matches, else new."""
    for last in _last_scenario:
        if (last.history is history and last.horizon == horizon
                and last.base_seed == base_seed
                and (last.network is network or last.network == network)):
            return last
    scenario = _Scenario(network, history, horizon, base_seed)
    _last_scenario[:] = [scenario]
    return scenario


def sim_network(network: NetworkSpec, policy: PolicyVector,
                history: HistoryDataset, config: ScenarioConfig,
                replication_index: int, *, record_trace: bool = False,
                record_events: bool = False) -> SimulationOutcome:
    """Run one replication over the full horizon.

    Initial state is on_hand = inv_position = round(fraction * base
    stock) with empty queues and zero counters.  Returns average end-of-
    day on-hand stock and the fill rate per facility (facilities that saw
    no demand report a fill rate of 1).  Replications are numbered from
    1; ``generate_synthetic_history`` draws the history itself from
    replication 0's stream keys.
    """
    replication_index = whole_number(replication_index, "replication_index")
    if replication_index < 1:
        raise ValueError(f"replication_index must be >= 1, got "
                         f"{replication_index}")
    prepared = _prepare(network, history, config.horizon, config.base_seed)
    ids = prepared.ids
    try:
        reorder_point = list(map(policy.reorder_point.__getitem__, ids))
        base_stock = list(map(policy.base_stock.__getitem__, ids))
    except KeyError as missing:
        raise InvalidPolicyError(
            f"policy missing facility {missing.args[0]}") from None
    upstream, suppliers = prepared.upstream, prepared.suppliers
    customers, total_demand, weighted_demand, leads = \
        prepared.draws(replication_index)
    next_lead = [iter(lead).__next__ for lead in leads]

    horizon = config.horizon
    lost_sales = config.demand_choice is DemandChoice.LOST_SALES
    n = len(ids)

    on_hand = [int(round(config.initial_inventory_fraction * b))
               for b in base_stock]
    # trigger and held follow the identities in the module docstring.
    trigger = list(reorder_point)
    held = [horizon * start - weighted
            for start, weighted in zip(on_hand, weighted_demand)]
    backorders = [0] * n
    short = [0] * n
    # Demand not shipped so far: lost sales, or else the open backlog.
    unserved = short if lost_sales else backorders
    queues = [deque() for _ in ids]
    calendar: list[list[tuple[int, int, int]]] = [
        [] for _ in range(horizon + 1)]

    events: list[tuple] | None = [] if record_events else None
    names = (*ids, SOURCE)  # names[-1] is SOURCE, the upstream index -1

    def emit(kind, day, f, **data):  # called only while events are on
        events.append((len(events), day, names[f], kind, data))
    if record_trace:
        rows = [[] for _ in ids]
        demand_rows = [(0,) * (horizon + 1)] * n
        for f, demand_by_day in customers:
            demand_rows[f] = demand_by_day
        unserved_before = [0] * n

    next_order_id = 0
    for day, weight in zip(range(1, horizon + 1), range(horizon, 0, -1)):
        # Phase 1: arrivals
        arriving = calendar[day]
        if arriving:
            if events is not None:
                arriving.sort(key=_DESTINATION)
            for dest, quantity, order_id in arriving:
                on_hand[dest] += quantity
                trigger[dest] += quantity
                held[dest] += quantity * weight
                if events is not None:
                    emit("arrive", day, dest, order_id=order_id,
                         quantity=quantity)

        # Phase 2: customer service.  An ordinary day (demand in stock, no
        # backlog) is one store: its share of held is already in W.
        for f, demand_by_day in customers:
            demand = demand_by_day[day]
            stock = on_hand[f]
            if demand <= stock and not backorders[f]:
                on_hand[f] = stock - demand
                shipped = demand
            else:
                if lost_sales:  # so demand > stock
                    shipped = stock
                    short[f] += demand - stock
                else:
                    wanted = demand + backorders[f]
                    if wanted <= stock:
                        shipped = wanted
                        backorders[f] = 0
                    else:
                        shipped = stock
                        backorders[f] = wanted - stock
                        if demand > stock:
                            short[f] += demand - stock
                on_hand[f] = stock - shipped
                held[f] += (demand - shipped) * weight
            if events is not None:
                emit("serve", day, f, demand=demand, shipped=shipped)

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
                            emit("reserve", day, f, order_id=order_id,
                                 quantity=grabbed)
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
                    emit("ship", day, f, order_id=order_id, quantity=quantity,
                         destination=ids[dest], arrival_day=day + lead)
            on_hand[f] = stock
            held[f] -= taken * weight

        # Phase 4: order placement
        for f in range(n):
            if on_hand[f] <= trigger[f]:
                quantity = base_stock[f] - on_hand[f]
                if quantity > 0:
                    order_id = next_order_id
                    next_order_id += 1
                    trigger[f] -= quantity
                    up = upstream[f]
                    if events is not None:
                        emit("order", day, f, order_id=order_id,
                             quantity=quantity, upstream=names[up])
                    if up >= 0:
                        queues[up].append([quantity, f, order_id, None])
                    else:
                        # SOURCE never queues: unbounded stock, no wait.
                        lead = next_lead[f]()
                        land = day + lead if lead else day + 1
                        if land <= horizon:
                            calendar[land].append((f, quantity, order_id))
                        if events is not None:
                            emit("ship", day, up, order_id=order_id,
                                 quantity=quantity, destination=ids[f],
                                 arrival_day=day + lead)

        if record_trace:
            for f in range(n):
                demand = demand_rows[f][day]
                # Shipped today: demand less today's growth of unserved.
                rows[f].append((on_hand[f],
                                on_hand[f] + reorder_point[f] - trigger[f],
                                backorders[f], demand,
                                demand - unserved[f] + unserved_before[f]))
                unserved_before[f] = unserved[f]

    total_shipped = [d - u for d, u in zip(total_demand, unserved)]
    # The fill rate: shipped / demand under lost sales, 1 - late / demand
    # under backorders, and 1 for a facility that saw no demand.
    if lost_sales:
        total_late = [0] * n
        beta = [s / d if d else 1.0
                for s, d in zip(total_shipped, total_demand)]
    else:
        total_late = short
        beta = [1.0 - late / d if d else 1.0
                for late, d in zip(short, total_demand)]
    return SimulationOutcome(
        avg_on_hand=dict(zip(ids, [h / horizon for h in held])),
        beta=dict(zip(ids, beta)),
        total_demand=dict(zip(ids, total_demand)),
        total_shipped=dict(zip(ids, total_shipped)),
        total_late=dict(zip(ids, total_late)),
        final_backorders=dict(zip(ids, backorders)),
        final_on_hand=dict(zip(ids, on_hand)),
        trace={fid: dict(zip(TRACE_COLUMNS, map(list, zip(*rows[f]))))
               for f, fid in enumerate(ids)} if record_trace else None,
        events=events,
    )
