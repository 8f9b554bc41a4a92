import itertools
import math
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eonjam.topology import (
    SPAN_LENGTH_KM,
    Link,
    RouteNotFoundError,
    TopologyError,
    load_topology,
    nsfnet,
    nsfnet_text,
)

TRIANGLE = """
nodes: A B C
link: A B 100
link: B C 100
link: A C 250
"""


def test_span_count_single_span():
    topo = load_topology(f"nodes: A B\nlink: A B {SPAN_LENGTH_KM}\n")
    assert topo.links[0].span_count == 1


def test_span_count_rounds_up():
    topo = load_topology(f"nodes: A B\nlink: A B {2.5 * SPAN_LENGTH_KM}\n")
    assert topo.links[0].span_count == 3


def test_a_link_derives_its_span_count_from_its_length():
    link = Link(id="A-B", source="A", destination="B", length_km=2.5 * SPAN_LENGTH_KM)
    assert link.span_count == 3
    # A caller cannot price a 250 km link as one span.
    with pytest.raises(TypeError):
        Link(id="A-B", source="A", destination="B", length_km=2.5 * SPAN_LENGTH_KM, span_count=1)


def test_span_count_bounds_length():
    topo = nsfnet()
    for link in topo.links:
        assert link.span_count * SPAN_LENGTH_KM >= link.length_km
        assert (link.span_count - 1) * SPAN_LENGTH_KM < link.length_km


def test_nsfnet_shape():
    topo = nsfnet()
    assert len(topo.nodes) == 14
    assert len(topo.links) == 21


def test_comments_and_blank_lines():
    topo = load_topology("# hello\n\nnodes: A B\n# mid\nlink: A B 80.5\n")
    assert topo.links[0].length_km == 80.5


@pytest.mark.parametrize(
    "document, message",
    [
        ("link: A B 100\n", "nodes"),
        ("nodes: A B\nlink: A C 100\n", "undeclared"),
        ("nodes: A B\nlink: A B -5\n", "non-positive"),
        ("nodes: A B\nlink: A B inf\n", "line 2: non-positive or non-finite length inf"),
        ("nodes: A B\nlink: A B nan\n", "line 2: non-positive or non-finite length nan"),
        ("nodes: A B\nlink: A B x\n", "bad length"),
        ("nodes: A B C\nlink: A B 100\n", "not connected"),
        ("nodes: A B\nfoo: bar\n", "unrecognised"),
        ("nodes: A B\nlink: A B\n", "expected"),
        # Ids are min-max of the endpoint names, so names holding '-' collide.
        ("nodes: a-b c a b-c\nlink: a-b c 100\nlink: a b-c 100\nlink: c a 100\n",
         "duplicate link id 'a-b-c'"),
    ],
)
def test_malformed_documents_rejected(document, message):
    with pytest.raises(TopologyError, match=message):
        load_topology(document)


@pytest.mark.parametrize("length_km", [0.0, -5.0, math.inf, math.nan])
def test_topology_refuses_a_length_that_is_not_finite_and_positive(length_km):
    # The link refuses its own length, before any topology holds it.
    with pytest.raises(TopologyError, match=f"^non-positive or non-finite length {length_km}$"):
        Link(id="A-B", source="A", destination="B", length_km=length_km)


def test_triangle_routes_around():
    topo = load_topology(TRIANGLE)
    route = topo.shortest_path("A", "C")
    assert route.nodes == ("A", "B", "C")
    assert route.length_km == 200
    assert topo.shortest_path("A", "B").nodes == ("A", "B")


def test_single_link_route():
    topo = load_topology("nodes: A B\nlink: A B 100\n")
    route = topo.shortest_path("A", "B")
    assert route.link_ids == ("A-B",)


def test_direct_wins_when_shorter():
    topo = load_topology("nodes: A B C\nlink: A B 100\nlink: B C 100\nlink: A C 150\n")
    assert topo.shortest_path("A", "C").nodes == ("A", "C")


def test_same_endpoints_rejected():
    topo = load_topology(TRIANGLE)
    with pytest.raises(TopologyError):
        topo.shortest_path("A", "A")


def test_unknown_node_rejected():
    topo = load_topology(TRIANGLE)
    with pytest.raises(TopologyError):
        topo.shortest_path("A", "Z")


def test_route_cache_returns_same_object():
    topo = load_topology(TRIANGLE)
    assert topo.shortest_path("A", "C") is topo.shortest_path("A", "C")


def _brute_force_shortest(topo, source, destination):
    """Exhaustive enumeration of simple paths; minimal total length."""
    best = math.inf
    stack = [(source, (source,), 0.0)]
    adjacency = {n: [] for n in topo.nodes}
    for link in topo.links:
        adjacency[link.source].append((link.destination, link.length_km))
        adjacency[link.destination].append((link.source, link.length_km))
    while stack:
        node, path, dist = stack.pop()
        if node == destination:
            best = min(best, dist)
            continue
        for neighbour, length in adjacency[node]:
            if neighbour not in path:
                stack.append((neighbour, path + (neighbour,), dist + length))
    return best


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    nodes = [f"n{i}" for i in range(n)]
    # Random spanning tree keeps the graph connected, then extra edges.
    edges = {}
    for i in range(1, n):
        j = draw(st.integers(min_value=0, max_value=i - 1))
        edges[(j, i)] = draw(st.integers(min_value=1, max_value=40)) * 10.0
    extras = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=6
    ))
    for a, b in extras:
        if a == b:
            continue
        key = (min(a, b), max(a, b))
        if key not in edges:
            edges[key] = draw(st.integers(min_value=1, max_value=40)) * 10.0
    document = ["nodes: " + " ".join(nodes)]
    for (a, b), length in edges.items():
        document.append(f"link: {nodes[a]} {nodes[b]} {length}")
    return load_topology("\n".join(document))


@given(small_graphs(), st.data())
@settings(max_examples=60, deadline=None)
def test_shortest_path_matches_brute_force(topo, data):
    source = data.draw(st.sampled_from(topo.nodes))
    destination = data.draw(st.sampled_from([n for n in topo.nodes if n != source]))
    route = topo.shortest_path(source, destination)
    assert math.isclose(route.length_km, _brute_force_shortest(topo, source, destination))


@given(small_graphs())
@settings(max_examples=60, deadline=None)
def test_route_reversal_symmetry(topo):
    for source, destination in itertools.permutations(topo.nodes, 2):
        forward = topo.shortest_path(source, destination)
        backward = topo.shortest_path(destination, source)
        assert forward.nodes == tuple(reversed(backward.nodes))


def test_reversal_symmetry_on_tied_paths():
    # Disjoint equal-length routes a-b-z-f and a-c-d-f: comparing plain
    # sequences would pick a-b-z-f forward (b < c) but f-d-c-a backward
    # (d < z); the canonical tie-break must stay symmetric.
    topo = load_topology(
        "nodes: a b c d f z\n"
        "link: a b 100\nlink: b z 100\nlink: z f 100\n"
        "link: a c 100\nlink: c d 100\nlink: d f 100\n"
    )
    forward = topo.shortest_path("a", "f")
    backward = topo.shortest_path("f", "a")
    assert forward.nodes == tuple(reversed(backward.nodes))
    assert forward.length_km == 300
    assert forward.nodes == ("a", "b", "z", "f")


def test_disconnected_is_rejected_at_load():
    with pytest.raises(TopologyError, match="not connected"):
        load_topology("nodes: A B C D\nlink: A B 100\nlink: C D 100\n")


def test_route_not_found_reported_defensively():
    topo = load_topology(TRIANGLE)
    object.__setattr__  # silence linters; we poke internals deliberately
    topo._adjacency["A"] = []
    topo._route_cache.clear()
    topo._distances.clear()
    with pytest.raises(RouteNotFoundError):
        topo.shortest_path("A", "B")


METRO_TOPO = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads" / "metro.topo"


def _enumerated_route(topo, source, destination):
    """Oracle: every tied shortest path, then the smallest canonical key.

    The canonical key of a node sequence is the smaller of the sequence
    and its reverse.  Exponential in the number of ties; small graphs only.
    """
    dist_s = topo._dijkstra_distances(source)
    dist_d = topo._dijkstra_distances(destination)
    total = dist_s[destination]
    paths = []
    stack = [(source, (source,))]
    while stack:
        node, prefix = stack.pop()
        if node == destination:
            paths.append(prefix)
            continue
        for link in topo._adjacency[node]:
            other = link.other_end(node)
            if other in prefix:
                continue
            if not math.isclose(
                dist_s[node] + link.length_km + dist_d.get(other, math.inf),
                total,
                rel_tol=1e-12,
                abs_tol=1e-9,
            ):
                continue
            stack.append((other, prefix + (other,)))
    return min(paths, key=lambda p: min(p, tuple(reversed(p))))


def _assert_routes_match_enumeration(topo):
    ids = {frozenset((link.source, link.destination)): link.id for link in topo.links}
    for source, destination in itertools.permutations(topo.nodes, 2):
        route = topo.shortest_path(source, destination)
        expected = _enumerated_route(topo, source, destination)
        assert route.nodes == expected
        assert route.link_ids == tuple(ids[frozenset(hop)] for hop in zip(expected, expected[1:]))


@pytest.mark.parametrize("document", [nsfnet_text(), METRO_TOPO.read_text()], ids=["nsfnet", "metro"])
def test_routes_match_enumeration_on_shipped_topologies(document):
    _assert_routes_match_enumeration(load_topology(document))


@st.composite
def tied_graphs(draw):
    """Connected graphs whose links are 10 or 20 km, so most routes tie.

    Node names are shuffled against the build order, so sources above and
    below their destinations both occur.
    """
    n = draw(st.integers(min_value=2, max_value=8))
    nodes = draw(st.permutations([f"n{i}" for i in range(n)]))
    edges = {}
    lengths = st.sampled_from([10, 20])
    for i in range(1, n):
        edges[(draw(st.integers(min_value=0, max_value=i - 1)), i)] = draw(lengths)
    extras = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12))
    for a, b in extras:
        if a != b:
            edges.setdefault((min(a, b), max(a, b)), draw(lengths))
    document = ["nodes: " + " ".join(nodes)]
    document += [f"link: {nodes[a]} {nodes[b]} {length}" for (a, b), length in edges.items()]
    return load_topology("\n".join(document))


@given(tied_graphs())
@settings(max_examples=150, deadline=None)
def test_routes_match_enumeration_on_tied_graphs(topo):
    _assert_routes_match_enumeration(topo)


def test_corner_route_of_a_large_grid_is_fast():
    # A 30x30 grid of equal links has C(58, 29), about 3e16, tied corner
    # routes; the walk must not enumerate them.
    size = 30
    name = "r{:02d}c{:02d}".format
    document = ["nodes: " + " ".join(name(i, j) for i in range(size) for j in range(size))]
    for i in range(size):
        for j in range(size):
            if i + 1 < size:
                document.append(f"link: {name(i, j)} {name(i + 1, j)} 10")
            if j + 1 < size:
                document.append(f"link: {name(i, j)} {name(i, j + 1)} 10")
    topo = load_topology("\n".join(document))
    started = time.perf_counter()
    route = topo.shortest_path(name(size - 1, size - 1), name(0, 0))
    assert time.perf_counter() - started < 0.5
    # Read from r00c00, the smallest sequence runs along row 0, then down.
    along_row = [name(0, j) for j in range(size)] + [name(i, size - 1) for i in range(1, size)]
    assert route.nodes == tuple(reversed(along_row))
    assert route.length_km == 10 * 2 * (size - 1)
