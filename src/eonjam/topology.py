"""Network graph, span structure and shortest-path routing.

Topologies are loaded from a small line-oriented text format::

    # comment
    nodes: A B C
    link: A B 100
    link: B C 250

Node names are separated by whitespace and may not hold a comma: they
make up the link ids that the CSV outputs record.
Links are undirected fibres whose spectrum is managed per direction by
the control plane; lengths are symmetric, finite and positive.  Every
link is divided into amplifier spans of :data:`SPAN_LENGTH_KM`, rounded
up so the whole length is covered, the span whose ASE ``phy`` prices.

Routing is plain Dijkstra on link lengths.  Equal-length ties are broken
by the smallest tied node sequence read from the smaller endpoint (the
smaller of the sequence and its reverse), which makes the choice
deterministic and direction-symmetric: the route from d to s is always
the reverse of the route from s to d.  Distances are computed once per
origin and routes once per node pair, and both are cached; the
simulator never reroutes.
"""

from __future__ import annotations

import heapq
import math
from functools import cached_property
from importlib import resources

from ._value import Value

__all__ = [
    "SPAN_LENGTH_KM",
    "TopologyError",
    "RouteNotFoundError",
    "Link",
    "Route",
    "Topology",
    "load_topology",
    "load_topology_file",
    "nsfnet",
    "nsfnet_text",
]

#: Links are cut into amplifier spans of this length; ``phy.G0_ASE`` prices one.
SPAN_LENGTH_KM = 100.0


class TopologyError(ValueError):
    pass


class RouteNotFoundError(TopologyError):
    """No path between the requested endpoints (a disconnected graph)."""


class Link(Value):
    """An undirected fibre: id, endpoints, length and the spans the length implies."""

    _fields = ("id", "source", "destination", "length_km", "span_count")

    def __init__(self, id: str, source: str, destination: str, length_km: float) -> None:
        if not 0.0 < length_km < math.inf:
            raise TopologyError(f"non-positive or non-finite length {length_km}")
        span_count = max(1, math.ceil(length_km / SPAN_LENGTH_KM))
        self._store(id=id, source=source, destination=destination, length_km=length_km, span_count=span_count)

    def other_end(self, node: str) -> str:
        if node == self.source:
            return self.destination
        if node == self.destination:
            return self.source
        raise TopologyError(f"node {node!r} is not an endpoint of link {self.id}")


class Route(Value):
    """An ordered chain of links from source to destination."""

    _fields = ("links", "source", "destination")

    @property
    def link_ids(self) -> tuple[str, ...]:
        return tuple(link.id for link in self.links)

    @cached_property
    def nodes(self) -> tuple[str, ...]:
        seq = [self.source]
        for link in self.links:
            seq.append(link.other_end(seq[-1]))
        return tuple(seq)

    @property
    def length_km(self) -> float:
        return sum(link.length_km for link in self.links)

    @cached_property
    def span_counts(self) -> tuple[int, ...]:
        """The span count of each link, in route order."""
        return tuple([link.span_count for link in self.links])

    @cached_property
    def link_spans(self) -> dict[str, int]:
        """The span count of each link, by link id."""
        return {link.id: link.span_count for link in self.links}

    @cached_property
    def total_spans(self) -> int:
        return sum(link.span_count for link in self.links)

    @cached_property
    def directed_hops(self) -> tuple[tuple[str, str], ...]:
        """(from, to) node pairs, one per traversed link."""
        seq = self.nodes
        return tuple(zip(seq[:-1], seq[1:]))


def _validate_route(route: Route) -> None:
    nodes = route.nodes
    if nodes[-1] != route.destination:
        raise TopologyError("route links do not end at the destination")
    if len(set(nodes)) != len(nodes):
        raise TopologyError("route repeats a node")


class Topology:
    """Immutable graph of nodes and fibre links with cached routing."""

    def __init__(self, nodes, links):
        self.nodes: tuple[str, ...] = tuple(nodes)
        self.links: tuple[Link, ...] = tuple(links)
        self._validate()
        self._adjacency: dict[str, list[Link]] = {n: [] for n in self.nodes}
        for link in self.links:
            self._adjacency[link.source].append(link)
            self._adjacency[link.destination].append(link)
        self._distances: dict[str, dict[str, float]] = {}
        if len(self._dijkstra_distances(self.nodes[0])) < len(self.nodes):
            raise TopologyError("graph is not connected")
        self._by_id = {link.id: link for link in self.links}
        self._route_cache: dict[tuple[str, str], Route] = {}

    def _validate(self) -> None:
        if len(self.nodes) < 2:
            raise TopologyError("at least two nodes are required")
        if len(set(self.nodes)) != len(self.nodes):
            raise TopologyError("duplicate node id")
        for node in self.nodes:
            # Node names end up in link ids, which the CSV outputs hold.
            if "," in node:
                raise TopologyError(f"node name {node!r} contains a comma")
        node_set = set(self.nodes)
        seen_pairs = set()
        seen_ids = set()
        for link in self.links:
            if link.source not in node_set or link.destination not in node_set:
                raise TopologyError(f"link {link.id} references an undeclared node")
            if link.source == link.destination:
                raise TopologyError(f"link {link.id} is a self-loop")
            pair = frozenset((link.source, link.destination))
            if pair in seen_pairs:
                raise TopologyError(f"parallel link between {link.source} and {link.destination}")
            seen_pairs.add(pair)
            if link.id in seen_ids:
                raise TopologyError(f"duplicate link id {link.id!r}")
            seen_ids.add(link.id)

    def link_by_id(self, link_id: str) -> Link:
        try:
            return self._by_id[link_id]
        except KeyError:
            raise TopologyError(f"unknown link id {link_id!r}") from None

    def shortest_path(self, source: str, destination: str) -> Route:
        """Minimum-length route, deterministic under ties, cached."""
        if source == destination:
            raise TopologyError("source and destination must differ")
        for node in (source, destination):
            if node not in self._adjacency:
                raise TopologyError(f"unknown node {node!r}")
        key = (source, destination)
        cached = self._route_cache.get(key)
        if cached is not None:
            return cached

        dist_s = self._dijkstra_distances(source)
        if destination not in dist_s:
            raise RouteNotFoundError(f"no path from {source!r} to {destination!r}")
        dist_d = self._dijkstra_distances(destination)
        total = dist_s[destination]
        forward = source < destination

        def tied_steps(node):
            """Links of ``node`` on a shortest path, smaller neighbour first."""
            steps = []
            for link in self._adjacency[node]:
                other = link.other_end(node)
                x, y = (node, other) if forward else (other, node)
                length = dist_s[x] + link.length_km + dist_d.get(y, math.inf)
                if math.isclose(length, total, rel_tol=1e-12, abs_tol=1e-9):
                    steps.append((other, link))
            return iter(sorted(steps, key=lambda step: step[0]))

        # The first tied path a smaller-neighbour-first depth-first walk
        # from the smaller endpoint reaches is the smallest one.
        start, end = (source, destination) if forward else (destination, source)
        path, links, branches = [start], [], [tied_steps(start)]
        while path[-1] != end:
            other, link = next(branches[-1], (None, None))
            if other is None:  # dead end: back up one hop
                branches.pop()
                path.pop()
                links.pop()
            elif other not in path:
                path.append(other)
                links.append(link)
                branches.append(tied_steps(other))
        if not forward:
            links.reverse()
        route = Route(links=tuple(links), source=source, destination=destination)
        _validate_route(route)
        self._route_cache[key] = route
        return route

    def _dijkstra_distances(self, origin: str) -> dict[str, float]:
        """Shortest distance from ``origin`` to every node it reaches, cached."""
        cached = self._distances.get(origin)
        if cached is not None:
            return cached
        dist = {origin: 0.0}
        heap = [(0.0, origin)]
        while heap:
            d, node = heapq.heappop(heap)
            if d > dist.get(node, math.inf):
                continue
            for link in self._adjacency[node]:
                other = link.other_end(node)
                nd = d + link.length_km
                if nd < dist.get(other, math.inf):
                    dist[other] = nd
                    heapq.heappush(heap, (nd, other))
        self._distances[origin] = dist
        return dist


def load_topology(document: str) -> Topology:
    """Parse the line-oriented topology format into a validated graph."""
    nodes: list[str] = []
    links: list[Link] = []
    saw_nodes = False
    for lineno, raw in enumerate(document.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("nodes:"):
            if saw_nodes:
                raise TopologyError(f"line {lineno}: duplicate nodes header")
            nodes = line[len("nodes:"):].split()
            if not nodes:
                raise TopologyError(f"line {lineno}: empty node list")
            saw_nodes = True
        elif line.startswith("link:"):
            parts = line[len("link:"):].split()
            if len(parts) != 3:
                raise TopologyError(f"line {lineno}: expected 'link: <src> <dst> <length_km>'")
            src, dst, length_text = parts
            try:
                length = float(length_text)
            except ValueError:
                raise TopologyError(f"line {lineno}: bad length {length_text!r}") from None
            link_id = f"{src}-{dst}" if src < dst else f"{dst}-{src}"
            try:
                links.append(Link(id=link_id, source=src, destination=dst, length_km=length))
            except TopologyError as exc:
                raise TopologyError(f"line {lineno}: {exc}") from None
        else:
            raise TopologyError(f"line {lineno}: unrecognised directive {line!r}")
    if not saw_nodes:
        raise TopologyError("missing 'nodes:' header")
    return Topology(nodes=nodes, links=links)


def load_topology_file(path) -> Topology:
    with open(path, "r", encoding="ascii") as handle:
        return load_topology(handle.read())


def nsfnet_text() -> str:
    """Source text of the bundled NSFNet topology file."""
    return resources.files("eonjam.data").joinpath("nsfnet.topo").read_text(encoding="ascii")


def nsfnet() -> Topology:
    """The bundled 14-node NSFNet with the widely used distance set."""
    return load_topology(nsfnet_text())
