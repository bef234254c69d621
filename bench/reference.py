"""Plain-loop reference simulator and the timing yardstick built on it.

``simulate`` restates the four-phase day rules that ``echelonopt.engine``
documents (arrivals, customer service, FIFO replenishment fulfillment
with head-of-line blocking, ordering on inventory position) with plain
lists and integers.  It shares no code with the engine or the objective.
Inputs are plain data:

* ``facilities``: ``[(id, upstream, base_lead_time, serves_customers)]``
  in network order, ``"SOURCE"`` marking the external supplier;
* ``rop``, ``base``: ``{id: int}``;
* ``demand_hist``, ``lead_hist``: ``{id: list[int]}``;
* ``streams(replication, facility, purpose)``: a numpy ``Generator`` for
  that stream, ``purpose`` being ``"demand"`` or ``"lead"``.

The benchmark compares its output with the engine's for exact equality,
and also times it on fixed inputs as a yardstick for the host's speed
(see ``yardstick``).
"""

from __future__ import annotations

import numpy as np

SOURCE = "SOURCE"


def simulate(facilities, rop, base, demand_hist, lead_hist, streams,
             replication, horizon, lost_sales, init_fraction):
    """One replication; returns ``({id: avg_on_hand}, {id: beta})``."""
    ids = [f[0] for f in facilities]
    upstream = {f[0]: f[1] for f in facilities}
    lead_time = {f[0]: f[2] for f in facilities}
    customers = [f[0] for f in facilities if f[3]]

    on_hand = {}
    position = {}
    for fid in ids:
        on_hand[fid] = position[fid] = int(round(init_fraction * base[fid]))
    backlog = {fid: 0 for fid in ids}
    demanded = {fid: 0 for fid in ids}
    shipped = {fid: 0 for fid in ids}
    late = {fid: 0 for fid in ids}
    on_hand_sum = {fid: 0 for fid in ids}
    queue = {fid: [] for fid in ids}       # [quantity, requester, reserved]
    in_transit = {fid: [] for fid in ids}  # (arrival_day, quantity)

    daily_demand = {}
    for fid in customers:
        samples = demand_hist[fid]
        rng = streams(replication, fid, "demand")
        picks = rng.integers(0, len(samples), size=horizon)
        daily_demand[fid] = [int(samples[i]) for i in picks]
    lead_rng = {fid: streams(replication, fid, "lead") for fid in ids}

    def send(requester, quantity, day):
        samples = lead_hist[requester]
        delta = int(samples[lead_rng[requester].integers(0, len(samples))])
        in_transit[requester].append(
            (day + lead_time[requester] + delta, quantity))

    for day in range(1, horizon + 1):
        for fid in ids:
            kept = []
            for arrival, quantity in in_transit[fid]:
                if arrival <= day:
                    on_hand[fid] += quantity
                else:
                    kept.append((arrival, quantity))
            in_transit[fid] = kept

        for fid in customers:
            d = daily_demand[fid][day - 1]
            demanded[fid] += d
            if lost_sales:
                s = min(d, on_hand[fid])
            else:
                s = min(d + backlog[fid], on_hand[fid])
                backlog[fid] += d - s
                if d - s > 0:
                    late[fid] += d - s
            shipped[fid] += s
            on_hand[fid] -= s
            position[fid] -= s

        for fid in ids:
            q = queue[fid]
            while q:
                head = q[0]
                if head[2] is None:
                    grab = min(head[0], on_hand[fid])
                    on_hand[fid] -= grab
                    position[fid] -= grab
                    head[2] = grab
                rest = head[0] - head[2]
                if rest > 0:
                    if on_hand[fid] < rest:
                        break
                    on_hand[fid] -= rest
                    position[fid] -= rest
                    head[2] = head[0]
                q.pop(0)
                send(head[1], head[0], day)

        for fid in ids:
            if position[fid] > rop[fid]:
                continue
            quantity = base[fid] - on_hand[fid]
            if quantity <= 0:
                continue
            position[fid] += quantity
            if upstream[fid] == SOURCE:
                send(fid, quantity, day)
            else:
                queue[upstream[fid]].append([quantity, fid, None])

        for fid in ids:
            on_hand_sum[fid] += on_hand[fid]

    avg = {fid: on_hand_sum[fid] / horizon for fid in ids}
    beta = {}
    for fid in ids:
        if demanded[fid] == 0:
            beta[fid] = 1.0
        elif lost_sales:
            beta[fid] = shipped[fid] / demanded[fid]
        else:
            beta[fid] = 1.0 - late[fid] / demanded[fid]
    return avg, beta


def penalized_z(outcomes, targets, rho):
    """Z over replication outcomes, summed in the documented order."""
    total_on_hand = 0.0
    total_violation = 0.0
    for avg, beta in outcomes:
        for fid in avg:
            total_on_hand += avg[fid]
            total_violation += max(0.0, targets[fid] - beta[fid])
    n = len(outcomes)
    return total_on_hand / n + rho * total_violation / n


# Fixed inputs of the yardstick: the bundled five-facility tree at its
# initial policy, one replication of 360 days, histories and streams from
# numpy alone.  Nothing here comes from the program, so a change to the
# program cannot change how long the yardstick takes.
_YARD_FACILITIES = [("1", SOURCE, 3, True), ("2", "1", 4, True),
                    ("3", "1", 4, False), ("4", "3", 2, True),
                    ("5", "3", 2, True)]
_YARD_ROP = {"1": 1000, "2": 250, "3": 200, "4": 150, "5": 200}
_YARD_BASE = {"1": 3000, "2": 600, "3": 900, "4": 300, "5": 600}
_YARD_MEAN = {"1": 60, "2": 35, "4": 20, "5": 25}


def _yard_history():
    rng = np.random.default_rng(7)
    demand = {f: [max(0, int(v)) for v in rng.normal(m, m / 5, 360).round()]
              for f, m in _YARD_MEAN.items()}
    lead = {f[0]: [max(0, int(v)) for v in rng.normal(1, 1, 360).round()]
            for f in _YARD_FACILITIES}
    return demand, lead


_YARD_DEMAND, _YARD_LEAD = _yard_history()
_YARD_PURPOSE = {"demand": 0, "lead": 1}


def _yard_streams(replication, facility, purpose):
    return np.random.default_rng(
        [replication, int(facility), _YARD_PURPOSE[purpose]])


def yardstick():
    """The fixed unit of work whose duration measures the host's speed."""
    return simulate(_YARD_FACILITIES, _YARD_ROP, _YARD_BASE, _YARD_DEMAND,
                    _YARD_LEAD, _yard_streams, 1, 360, False, 0.9)
