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
objects.  The loop is generated: ``_LOOP`` and its block templates are the
one text of the day's rules, and ``_day_loop`` compiles them once per key
of supply topology (each facility's upstream position), demand choice and
recorder setting into a function that tests none of the three by day.

* Baked in: phases 3 and 4 are unrolled, one block per supplier and one
  per facility, each at its constant position, with the facility's base
  stock and its upstream's queue (or its own lead-time iterator, for an
  order from SOURCE) bound to locals before day 1.  Only the chosen
  demand rule is emitted, and the event and trace lines only when their
  recorder is on; ``emit`` is then the one helper called in the loop.
* Still loops: phase 1 walks the day's arrivals, which vary by day, and
  phase 2 the replication's (position, demand by day) pairs.  Unrolling
  phase 2 too, and keeping state in locals, are left to a later stage
  (ROADMAP item 14).  State stays in the per-facility lists that
  ``sim_network`` builds and reads afterwards.
* Only integers reach the source.  Facility ids come from config files,
  so an event reads its names from ``ids`` by position as the loop runs.
* The compiled loops are kept in a bounded ``lru_cache`` keyed by
  integers and flags alone, so it holds no draw table, history or
  scenario; a value-equal network, a new history or another policy
  reuses the loop, and nothing is compiled at import.

As in the oracle ``tests/reference_engine.py``, the event log holds every
event, and the trace is one row per facility-day.  State changes only
when stock moves, and exact integer identities give the rest:

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
from functools import lru_cache
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


# The day's rules, written once.  _day_loop keeps the lines whose tags
# (a trailing "#" and capital letters) are all on: B backorders, L lost
# sales, E the event log, T the trace; in a facility's block also Q an
# upstream facility, S SOURCE and P a supplier.  Each "@" line becomes
# one block per facility ("@supply": per supplier) with the facility's
# position for {f} and its upstream's (-1 for SOURCE) for {up}.
_LOOP = """\
def day_loop(horizon, ids, customers, leads, reorder_point, base_stock,
             on_hand, held, backorders, short, events, rows):
    trigger = list(reorder_point)
    next_lead = [iter(lead).__next__ for lead in leads]
    calendar = [[] for _ in range(horizon + 1)]
    next_order_id = 0
    @setup
    names = (*ids, SOURCE)  #E
    def emit(kind, day, f, **data):  #E
        events.append((len(events), day, names[f], kind, data))  #E
    # Demand not shipped so far: lost sales, or else the open backlog.  #T
    unserved = short  #LT
    unserved = backorders  #BT
    unserved_before = [0] * len(ids)  #T
    demand_rows = [(0,) * (horizon + 1)] * len(ids)  #T
    for f, demand_by_day in customers:  #T
        demand_rows[f] = demand_by_day  #T
    for day, weight in zip(range(1, horizon + 1), range(horizon, 0, -1)):
        # Phase 1: arrivals
        arriving = calendar[day]
        if arriving:
            arriving.sort(key=_DESTINATION)  #E
            for dest, quantity, order_id in arriving:
                on_hand[dest] += quantity
                trigger[dest] += quantity
                held[dest] += quantity * weight
                emit("arrive", day, dest, order_id=order_id,  #E
                     quantity=quantity)  #E
        # Phase 2: customer service.  An ordinary day (demand in stock, no
        # backlog) is one store: its share of held is already in W.
        for f, demand_by_day in customers:
            demand = demand_by_day[day]
            stock = on_hand[f]
            if demand <= stock and not backorders[f]:  #B
            if demand <= stock:  #L
                on_hand[f] = stock - demand
                shipped = demand  #E
            else:
                shipped = stock  #L
                short[f] += demand - stock  #L
                wanted = demand + backorders[f]  #B
                if wanted <= stock:  #B
                    shipped = wanted  #B
                    backorders[f] = 0  #B
                else:  #B
                    shipped = stock  #B
                    backorders[f] = wanted - stock  #B
                    if demand > stock:  #B
                        short[f] += demand - stock  #B
                on_hand[f] = stock - shipped
                held[f] += (demand - shipped) * weight
            emit("serve", day, f, demand=demand, shipped=shipped)  #E
        # Phase 3: replenishment fulfillment
        @supply
        # Phase 4: order placement
        @order
        for f, row in enumerate(rows):  #T
            demand = demand_rows[f][day]  #T
            # Shipped today: demand less today's growth of unserved.  #T
            row.append((on_hand[f],  #T
                        on_hand[f] + reorder_point[f] - trigger[f],  #T
                        backorders[f], demand,  #T
                        demand - unserved[f] + unserved_before[f]))  #T
            unserved_before[f] = unserved[f]  #T
"""
_SETUP = """\
base_{f} = base_stock[{f}]
lead_{f} = next_lead[{f}]  #S
queue_{f} = deque()  #P
"""
_SUPPLY = """\
if queue_{f}:
    stock = on_hand[{f}]
    taken = 0
    while queue_{f}:
        order = queue_{f}[0]
        quantity, dest, order_id, reserved = order
        if reserved is None:
            # First touch: grab what is on hand, once.
            grabbed = quantity if quantity < stock else stock
            stock -= grabbed
            taken += grabbed
            if grabbed < quantity:
                order[3] = grabbed
                emit("reserve", day, {f}, order_id=order_id,  #E
                     quantity=grabbed)  #E
                break
        else:
            remainder = quantity - reserved
            if stock < remainder:
                break
            stock -= remainder
            taken += remainder
        queue_{f}.popleft()
        lead = next_lead[dest]()
        land = day + lead if lead else day + 1
        if land <= horizon:
            calendar[land].append((dest, quantity, order_id))
        emit("ship", day, {f}, order_id=order_id, quantity=quantity,  #E
             destination=ids[dest], arrival_day=day + lead)  #E
    on_hand[{f}] = stock
    held[{f}] -= taken * weight
"""
_ORDER = """\
if on_hand[{f}] <= trigger[{f}]:
    quantity = base_{f} - on_hand[{f}]
    if quantity > 0:
        order_id = next_order_id
        next_order_id += 1
        trigger[{f}] -= quantity
        emit("order", day, {f}, order_id=order_id, quantity=quantity,  #E
             upstream=names[{up}])  #E
        queue_{up}.append([quantity, {f}, order_id, None])  #Q
        # SOURCE never queues: unbounded stock, no wait.  #S
        lead = lead_{f}()  #S
        land = day + lead if lead else day + 1  #S
        if land <= horizon:  #S
            calendar[land].append(({f}, quantity, order_id))  #S
        emit("ship", day, {up}, order_id=order_id, quantity=quantity,  #SE
             destination=ids[{f}], arrival_day=day + lead)  #SE
"""


def _kept(template: str, on: set[str]) -> list[str]:
    """The template's lines whose tags are all on, without their tags."""
    lines = []
    for line in template.splitlines():
        code, tagged, tags = line.rpartition("  #")
        if not (tagged and tags.isalpha() and tags.isupper()):
            lines.append(line)
        elif on.issuperset(tags):
            lines.append(code)
    return lines


@lru_cache(maxsize=256)
def _day_loop(upstream: tuple[int, ...], lost_sales: bool,
              record_trace: bool, record_events: bool):
    """The compiled day loop for one supply topology (each facility's
    upstream position, -1 for SOURCE), demand choice and recorder
    setting.  Only integers reach the source: facility ids are read from
    ``ids`` by position when the loop runs."""
    on = {"L" if lost_sales else "B"}
    on |= {"T"} if record_trace else set()
    on |= {"E"} if record_events else set()
    suppliers = set(upstream) - {-1}
    blocks = {"@setup": _SETUP, "@supply": _SUPPLY, "@order": _ORDER}
    source = []
    for line in _kept(_LOOP, on):
        marker = line.lstrip()
        if marker not in blocks:
            source.append(line)
            continue
        indent = line[:-len(marker)]
        for f, up in enumerate(upstream):
            if marker == "@supply" and f not in suppliers:
                continue
            facility_on = on | {"Q" if up >= 0 else "S"}
            facility_on |= {"P"} if f in suppliers else set()
            source += [indent + code for code in _kept(
                blocks[marker].format(f=f, up=up), facility_on)]
    namespace = {"deque": deque, "SOURCE": SOURCE,
                 "_DESTINATION": _DESTINATION}
    exec(compile("\n".join(source), "<day loop>", "exec"), namespace)
    return namespace["day_loop"]


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
    customers, total_demand, weighted_demand, leads = \
        prepared.draws(replication_index)
    horizon = config.horizon
    lost_sales = config.demand_choice is DemandChoice.LOST_SALES
    n = len(ids)

    on_hand = [int(round(config.initial_inventory_fraction * b))
               for b in base_stock]
    # held follows the identities in the module docstring.
    held = [horizon * start - weighted
            for start, weighted in zip(on_hand, weighted_demand)]
    backorders = [0] * n
    short = [0] * n
    # Demand not shipped so far: lost sales, or else the open backlog.
    unserved = short if lost_sales else backorders
    events: list[tuple] | None = [] if record_events else None
    rows = [[] for _ in ids] if record_trace else None
    _day_loop(prepared.upstream, lost_sales, record_trace, record_events)(
        horizon, ids, customers, leads, reorder_point, base_stock, on_hand,
        held, backorders, short, events, rows)

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
