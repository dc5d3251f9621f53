"""Input generators for the end-to-end benchmark.

Each generator takes the workload seed and the plant description printed by
`perfbench_driver describe`, and returns the text of an inputs file. The
driver receives only that file: every request, cut, splice and transfer,
with its simulated instant, is decided here.
"""

import math
import random

HOUR = 3600.0
DAY = 24 * HOUR
TB = 10**12
TIERS = ("gold", "silver", "bronze")


def _pair(rng, n_sites):
    a = rng.randrange(n_sites)
    b = rng.randrange(n_sites - 1)
    return a, b + (b >= a)


def _header(workload, rng, horizon, ntes_per_dc):
    return [
        f"workload {workload}",
        f"engine_seed {rng.randrange(1, 2**62)}",
        f"horizon_s {horizon:.3f}",
        f"ntes_per_dc {ntes_per_dc}",
    ]


def churn(seed, plant):
    """Three weeks of Poisson connect/disconnect churn, 10G waves and 1G
    ODU circuits, on default controller settings."""
    rng = random.Random(seed)
    days = 21
    horizon = days * DAY
    arrivals_per_hour = 24.0
    mean_hold = 1.5 * HOUR
    lines = _header("churn", rng, horizon, ntes_per_dc=4)
    n_sites = len(plant["dc_pops"])
    t = 0.0
    while True:
        t += rng.expovariate(arrivals_per_hour / HOUR)
        if t >= horizon:
            break
        src, dst = _pair(rng, n_sites)
        # 1G circuits ride the OTN layer unprotected; waves are restorable.
        gbps, protection = ((10, "restorable") if rng.random() < 0.6
                            else (1, "unprotected"))
        hold = 600.0 + rng.expovariate(1.0 / mean_hold)
        lines.append(f"connect {t:.3f} {src} {dst} {gbps} silver {hold:.3f} "
                     f"{protection}")
    return "\n".join(lines) + "\n"


def _adjacency(plant):
    adj = {}
    for link, a, b in plant["links"]:
        adj.setdefault(a, []).append((b, link))
        adj.setdefault(b, []).append((a, link))
    return adj


def _connected_without(plant, cut):
    adj = _adjacency(plant)
    start = plant["links"][0][1]
    seen = {start}
    todo = [start]
    while todo:
        n = todo.pop()
        for peer, link in adj[n]:
            if link not in cut and peer not in seen:
                seen.add(peer)
                todo.append(peer)
    return len(seen) == plant["nodes"]


def _hop_paths(plant, pops, pairs):
    """Link usage of BFS shortest paths between the demand pairs: a cheap
    stand-in for where the controller will route, used to aim the cuts."""
    adj = _adjacency(plant)
    usage = {}
    for a, b in pairs:
        src, dst = pops[a], pops[b]
        prev = {src: None}
        todo = [src]
        while todo and dst not in prev:
            nxt = []
            for n in todo:
                for peer, link in sorted(adj[n]):
                    if peer not in prev:
                        prev[peer] = (n, link)
                        nxt.append(peer)
            todo = nxt
        n = dst
        while prev.get(n) is not None:
            n, link = prev[n]
            usage[link] = usage.get(link, 0) + 1
    return usage


def storm(seed, plant):
    """A fixed set of long-lived gold/silver/bronze restorable waves; one
    SRLG conduit at a time is cut and spliced four hours later."""
    rng = random.Random(seed)
    pops = plant["dc_pops"]
    n_sites = len(pops)
    pairs = [(a, b) for a in range(n_sites) for b in range(a + 1, n_sites)]
    demands = [p for p in pairs for _ in range(2)]
    rng.shuffle(demands)

    # Conduits: two or three busy fibers leaving one PoP through a shared
    # duct, never so many that the cut partitions the backbone.
    usage = _hop_paths(plant, pops, pairs)
    adj = _adjacency(plant)
    candidates = []
    for node in sorted(adj):
        links = sorted(adj[node], key=lambda e: (-usage.get(e[1], 0), e[1]))
        if len(links) < 3:
            continue
        size = 3 if len(links) >= 5 else 2
        conduit = tuple(sorted(link for _, link in links[:size]))
        weight = sum(usage.get(l, 0) for l in conduit)
        if weight > 0 and _connected_without(plant, set(conduit)):
            candidates.append((weight, conduit))
    # The conduit set is the same for every seed, so every seed cuts the
    # same plant equally often; the seed decides order, timing and which
    # connection is which tier.
    candidates.sort(key=lambda c: (-c[0], c[1]))
    conduits = [c for _, c in candidates[:12]]

    # 24 cuts per conduit: with 8, the work per seed varied by up to 20%.
    cuts = 24 * len(conduits)
    cycle = 6 * HOUR
    horizon = cuts * cycle + HOUR
    lines = _header("storm", rng, horizon, ntes_per_dc=6)
    for conduit in conduits:
        lines.append("conduit " + " ".join(str(l) for l in conduit))
    for i, (a, b) in enumerate(demands):
        src, dst = (a, b) if rng.random() < 0.5 else (b, a)
        lines.append(f"connect 0 {src} {dst} 10 {TIERS[i % 3]} 0 restorable")
    order = []
    while len(order) < cuts:
        batch = list(range(len(conduits)))
        rng.shuffle(batch)
        order.extend(batch)
    for i in range(cuts):
        t = HOUR + i * cycle + rng.uniform(0, 600)
        lines.append(f"cut {t:.3f} {order[i]}")
        lines.append(f"splice {t + 4 * HOUR:.3f} {order[i]}")
    return "\n".join(lines) + "\n"


def bod_reopt(seed, plant):
    """Three days of deadline-driven bulk transfers through the calendar,
    over background wavelength churn on 24-channel fibers, with hourly
    re-optimization campaigns."""
    rng = random.Random(seed)
    n_sites = len(plant["dc_pops"])
    days = 3
    span = days * DAY
    lines = []
    last = 0.0
    t = 0.0
    while True:
        t += rng.expovariate(12.0 / HOUR)
        if t >= span:
            break
        src, dst = _pair(rng, n_sites)
        volume = math.exp(rng.uniform(math.log(0.5 * TB), math.log(8.0 * TB)))
        ideal = volume * 8 / 10e9  # seconds at 10G
        deadline = t + rng.uniform(1.4, 5.0) * ideal + 1800.0
        last = max(last, deadline)
        lines.append(f"transfer {t:.3f} {src} {dst} {int(volume)} {deadline:.3f}")
    t = 0.0
    while True:
        t += rng.expovariate(14.0 / HOUR)
        if t >= span:
            break
        src, dst = _pair(rng, n_sites)
        hold = 600.0 + rng.expovariate(1.0 / (2 * HOUR))
        last = max(last, t + hold)
        lines.append(f"connect {t:.3f} {src} {dst} 10 silver {hold:.3f} "
                     "restorable")
    header = _header("bod_reopt", rng, last + HOUR, ntes_per_dc=4)
    return "\n".join(header + lines) + "\n"


GENERATORS = {"churn": churn, "storm": storm, "bod_reopt": bod_reopt}
