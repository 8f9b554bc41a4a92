"""Output checks for the benchmark, computed apart from the simulator.

Every expected value here is worked out without the simulator's own
arithmetic: the physics comes from ``tests/reference_model.py`` (the
straight-line oracle of the test suite), the routes from a Dijkstra
written below, and the request stream from a second reading of the
documented draw order.  A check returns the replications it finds wrong,
keyed ``(mode, epsilon, replication)`` as in ``blocking.csv``, so the
benchmark can count each one as a failed operation.
"""

from __future__ import annotations

import csv
import heapq
import math
from collections import Counter
from pathlib import Path

import numpy as np

import reference_model as ref

SLOT_COUNT = 320
GUARD_SLOTS = 2
SLOT_GBAUD = ref.SLOT_HZ / 1e9
# Modulation name -> (bits per symbol, SNR threshold in dB).
FORMATS = {
    "BPSK": (1, 9.0),
    "QPSK": (2, 9.0),
    "8QAM": (3, 12.0),
    "16QAM": (4, 15.0),
    "32QAM": (5, 18.0),
    "64QAM": (6, 21.0),
}
# A static verdict closer than this to its threshold (in dB) is left out
# of the lower bound, so float rounding in the simulator cannot flip it.
STATIC_MARGIN_DB = 1e-6


class AuditError(AssertionError):
    """The live engine state disagrees with the reference model."""


# --- inputs -----------------------------------------------------------------


def read_topology(path) -> tuple[list[str], dict[tuple[str, str], float]]:
    """Nodes and undirected link lengths (km) of a ``.topo`` file."""
    nodes: list[str] = []
    lengths: dict[tuple[str, str], float] = {}
    for raw in Path(path).read_text(encoding="ascii").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("nodes:"):
            nodes = line[len("nodes:"):].split()
        elif line.startswith("link:"):
            a, b, length = line[len("link:"):].split()
            lengths[(a, b)] = lengths[(b, a)] = float(length)
    return nodes, lengths


def tied_shortest_paths(nodes, lengths, source, destination) -> list[list[str]]:
    """Every minimum-length node sequence from ``source`` to ``destination``."""
    neighbours = {n: [] for n in nodes}
    for a, b in lengths:
        neighbours[a].append(b)

    def distances(origin):
        dist = {origin: 0.0}
        heap = [(0.0, origin)]
        while heap:
            d, node = heapq.heappop(heap)
            if d > dist[node]:
                continue
            for other in neighbours[node]:
                nd = d + lengths[(node, other)]
                if nd < dist.get(other, math.inf):
                    dist[other] = nd
                    heapq.heappush(heap, (nd, other))
        return dist

    from_s, to_d = distances(source), distances(destination)
    total = from_s[destination]
    paths, stack = [], [[source]]
    while stack:
        path = stack.pop()
        if path[-1] == destination:
            paths.append(path)
            continue
        for other in neighbours[path[-1]]:
            via = from_s[path[-1]] + lengths[(path[-1], other)] + to_d[other]
            if other not in path and math.isclose(via, total, rel_tol=1e-12, abs_tol=1e-9):
                stack.append(path + [other])
    return paths


def span_count(length_km: float) -> int:
    return max(1, math.ceil(length_km / ref.SPAN_KM))


def width_slots(gbps: float, bits: int) -> int:
    return math.ceil(gbps / (SLOT_GBAUD * bits))


def empty_network_snr_db(spans_per_link, width: int) -> float:
    """SNR of a lone circuit of ``width`` slots, by the reference model."""
    bandwidth = width * ref.SLOT_HZ
    target = (0.0, bandwidth, ref.TX_POWER_W / bandwidth, False)
    return 10.0 * math.log10(ref.ref_snr(target, [(s, []) for s in spans_per_link], None))


def statically_unservable(nodes, lengths, bandwidths) -> set[tuple[str, str, float]]:
    """(source, destination, Gbps) that no format can carry in an empty network.

    A pair counts only when every tied shortest path misses every
    threshold, so the set is a lower bound whatever the tie-break.
    """
    unservable = set()
    for s in nodes:
        for d in nodes:
            if s == d:
                continue
            routes = [
                [span_count(lengths[(a, b)]) for a, b in zip(p, p[1:])]
                for p in tied_shortest_paths(nodes, lengths, s, d)
            ]
            for gbps in bandwidths:
                if all(
                    empty_network_snr_db(spans, width_slots(gbps, bits)) < threshold - STATIC_MARGIN_DB
                    for spans in routes
                    for bits, threshold in FORMATS.values()
                ):
                    unservable.add((s, d, gbps))
    return unservable


def request_mix(seed: int, nodes, traffic: dict) -> Counter:
    """Offered requests per (source, destination, Gbps) of one replication.

    Redraws the documented stream: Philox seeded with the replication's
    seed, and per request the inter-arrival time, source, destination
    (skipping the source), bandwidth and holding time, in that order.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    rate = traffic["load_erlangs"] / traffic["mean_holding_s"]
    choices = traffic["bandwidth_choices_gbps"]
    n = len(nodes)
    mix: Counter = Counter()
    for _ in range(traffic["requests_per_replication"]):
        rng.exponential(1.0 / rate)
        i = int(rng.integers(n))
        j = int(rng.integers(n - 1))
        if j >= i:
            j += 1
        gbps = float(choices[int(rng.integers(len(choices)))])
        rng.exponential(traffic["mean_holding_s"])
        mix[(nodes[i], nodes[j], gbps)] += 1
    return mix


def read_csv(path) -> list[dict]:
    with open(path, newline="", encoding="ascii") as handle:
        return list(csv.DictReader(handle))


def row_key(row) -> tuple[str, str, int]:
    return row["mode"], row["epsilon_db"], int(row["replication"])


def blocked_counts(row) -> tuple[int, int, int]:
    """(no_spectrum, qot, jammed) of a ``blocking.csv`` row."""
    return int(row["blocked_no_spectrum"]), int(row["blocked_qot"]), int(row["blocked_jammed"])


# --- checks on the CSV outputs ----------------------------------------------


def check_blocking_rows(rows, requests: int) -> dict:
    """Probability = (no_spectrum + qot + jammed) / requests, and 0 < p < 1."""
    failures = {}
    for row in rows:
        blocked = sum(blocked_counts(row))
        expected = f"{blocked / requests:.10g}"
        if row["blocking_probability"] != expected:
            failures[row_key(row)] = (
                f"blocking_probability {row['blocking_probability']} != {expected} = {blocked}/{requests}"
            )
        elif not 0 < blocked < requests:
            failures[row_key(row)] = f"blocking {blocked}/{requests} not strictly between 0 and 1"
    return failures


def check_slot_rows(rows) -> dict:
    """Every mean utilization lies in [0, 1]; a bad point fails all its replications."""
    failures = {}
    for row in rows:
        if not 0.0 <= float(row["mean_utilization"]) <= 1.0:
            failures[(row["mode"], row["epsilon_db"])] = (
                f"slot {row['slot_index']} utilization {row['mean_utilization']} outside [0, 1]"
            )
    return failures


def check_zero_db(blocking_rows, slot_rows) -> dict:
    """At 0 dB the attack is inert: jamming-mode rows equal the no_jamming rows."""
    failures = {}
    fields = ("blocking_probability", "blocked_no_spectrum", "blocked_qot", "blocked_jammed")
    baseline = {
        int(r["replication"]): tuple(r[f] for f in fields)
        for r in blocking_rows
        if r["mode"] == "no_jamming"
    }
    base_slots = [r["mean_utilization"] for r in slot_rows if r["mode"] == "no_jamming"]
    for mode in ("unaware", "aware"):
        zero = [r for r in blocking_rows if r["mode"] == mode and float(r["epsilon_db"]) == 0.0]
        slots = [
            r["mean_utilization"]
            for r in slot_rows
            if r["mode"] == mode and float(r["epsilon_db"]) == 0.0
        ]
        slots_differ = slots != base_slots
        for row in zero:
            if tuple(row[f] for f in fields) != baseline.get(int(row["replication"])):
                failures[row_key(row)] = f"{mode} at 0 dB differs from no_jamming"
            elif slots_differ:
                failures[row_key(row)] = f"{mode} slot profile at 0 dB differs from no_jamming"
    return failures


def check_static_bound(blocking_rows, requests: int, bound_by_replication: dict) -> dict:
    """Blocked >= requests no format can carry in an empty network."""
    failures = {}
    for row in blocking_rows:
        blocked = sum(blocked_counts(row))
        floor = bound_by_replication[int(row["replication"])]
        if blocked < floor:
            failures[row_key(row)] = f"{blocked} blocked < {floor} statically unservable"
    return failures


def check_same_hashes(hashes) -> str | None:
    """Every round of one run wrote byte-identical CSV bodies."""
    if any(h != hashes[0] for h in hashes[1:]):
        return "CSV bodies differ between rounds of the same code"
    return None


def check_ranking_rows(rows, link_count: int) -> str | None:
    """One entry per link, utilizations in [0, 1] and in descending order."""
    values = [float(r["mean_utilization"]) for r in rows]
    if len(values) != link_count:
        return f"ranking lists {len(values)} links, topology has {link_count}"
    if any(not 0.0 <= v <= 1.0 for v in values) or values != sorted(values, reverse=True):
        return "ranking utilizations out of [0, 1] or not descending"
    return None


# --- audit of the live state ------------------------------------------------


def channel_tuple(block, is_jammer: bool = False):
    """Reference-model channel for a slot block at the launch power."""
    bandwidth = block.width * ref.SLOT_HZ
    center = (block.start + block.width / 2.0) * ref.SLOT_HZ
    return (center, bandwidth, ref.TX_POWER_W / bandwidth, is_jammer)


def audit_state(state, target_link_id, jammed_ranges, epsilon_w, rel_tol: float = 1e-9) -> int:
    """Check every active circuit against the reference model.

    Recomputes each circuit's SNR with ``ref_snr`` from the circuits'
    own routes and blocks, checks it against ``Lightpath.snr``, the
    format threshold and the block width, and checks that no two
    circuits on a directed hop come closer than the guardband.  Returns
    the number of circuits audited; raises :class:`AuditError`.
    """
    on_hop: dict[tuple[str, str], list] = {}
    for lightpath in state.actives.values():
        for hop in lightpath.route.directed_hops:
            on_hop.setdefault(hop, []).append(lightpath)

    for hop, circuits in on_hop.items():
        blocks = sorted((lp.block.start, lp.block.start + lp.block.width, lp.id) for lp in circuits)
        for (_, end, low_id), (start, _, high_id) in zip(blocks, blocks[1:]):
            if start - end < GUARD_SLOTS:
                raise AuditError(f"circuits {low_id} and {high_id} closer than the guardband on {hop}")
        if blocks and (blocks[0][0] < 0 or blocks[-1][1] > SLOT_COUNT):
            raise AuditError(f"a circuit on {hop} lies outside the {SLOT_COUNT}-slot grid")

    jammers = [channel_tuple(block, is_jammer=True) for block in jammed_ranges]
    for lightpath in state.actives.values():
        per_link = []
        for link, hop in zip(lightpath.route.links, lightpath.route.directed_hops):
            channels = [channel_tuple(o.block) for o in on_hop[hop] if o.id != lightpath.id]
            if link.id == target_link_id:
                channels += jammers
            per_link.append((span_count(link.length_km), channels))
        expected = ref.ref_snr(channel_tuple(lightpath.block), per_link, epsilon_w)
        if not math.isclose(lightpath.snr, expected, rel_tol=rel_tol):
            raise AuditError(f"circuit {lightpath.id}: SNR {lightpath.snr!r} != reference {expected!r}")
        bits, threshold = FORMATS[lightpath.modulation.name]
        if 10.0 * math.log10(expected) < threshold - 1e-9:
            raise AuditError(f"circuit {lightpath.id} below its {lightpath.modulation.name} threshold")
        if lightpath.block.width != width_slots(lightpath.bandwidth_gbps, bits):
            raise AuditError(f"circuit {lightpath.id} has {lightpath.block.width} slots")
    return len(state.actives)


def check_conservation(result) -> str | None:
    """Every offered request was either established or blocked."""
    blocked = sum(result.blocked_by_reason.values())
    if result.established + blocked != result.requests:
        return f"{result.established} established + {blocked} blocked != {result.requests} requests"
    return None


def check_blocked_match(result, row) -> str | None:
    """The audited replication's blocked counts equal its ``blocking.csv`` row."""
    counts = result.blocked_by_reason
    seen = (
        counts.get("no-spectrum", 0),
        counts.get("qot-fail", 0),
        counts.get("jammed-no-alternative", 0),
    )
    written = blocked_counts(row)
    if seen != written:
        return f"audited blocked counts {seen} != blocking.csv {written}"
    return None
