import numpy as np
import pytest

from eonjam.control_plane import ControlMode
from eonjam.metrics import (
    ReplicationResult,
    blocking_probability,
    results_equal,
    slot_histogram,
    utilization_ranking,
)
from eonjam.sim import TrafficModel, run_replication
from eonjam.topology import load_topology


def fake_result(blocked, requests=1000, slots=None, links=None):
    return ReplicationResult(
        requests=requests,
        blocked_by_reason={"qot-fail": blocked},
        slot_utilization=np.zeros(320) if slots is None else slots,
        slot_used_by_link={k: np.array([v]) for k, v in (links or {}).items()},
    )


def test_blocking_probability_values():
    assert blocking_probability(fake_result(0)) == 0.0
    assert blocking_probability(fake_result(1000)) == 1.0
    assert blocking_probability(fake_result(37)) == 0.037


def test_blocking_probability_no_data():
    with pytest.raises(ValueError, match="no data"):
        blocking_probability(fake_result(0, requests=0))


def test_ranking_orders_and_breaks_ties():
    results = [
        fake_result(0, links={"a": 0.2, "b": 0.6, "c": 0.2}),
        fake_result(0, links={"a": 0.4, "b": 0.6, "c": 0.4}),
    ]
    ranking = utilization_ranking(results)
    assert ranking[0] == ("b", 0.6)
    assert [link for link, _ in ranking] == ["b", "a", "c"]


def test_ranking_single_link():
    ranking = utilization_ranking([fake_result(0, links={"only": 0.1})])
    assert ranking[0] == ranking[-1] == ("only", 0.1)


def test_ranking_empty_rejected():
    with pytest.raises(ValueError):
        utilization_ranking([])


def test_chain_topology_ranking_matches_pair_load():
    # On a 4-node chain with uniform pairs the middle link carries 8 of
    # 12 ordered pairs and the edge links 6 each, so it must rank first.
    topo = load_topology(
        "nodes: A B C D\nlink: A B 500\nlink: B C 500\nlink: C D 500\n"
    )
    traffic = TrafficModel(requests_per_replication=3000, replications=1)
    results = [run_replication(31 + r, topo, traffic, ControlMode.NO_JAMMING) for r in range(2)]
    ranking = utilization_ranking(results)
    assert ranking[0][0] == "B-C"
    assert {link for link, _ in ranking[1:]} == {"A-B", "C-D"}


def test_slot_histogram_averages():
    a = fake_result(0, slots=np.full(320, 0.2))
    b = fake_result(0, slots=np.full(320, 0.4))
    hist = slot_histogram([a, b])
    assert hist.shape == (320,)
    assert np.allclose(hist, 0.3)
    with pytest.raises(ValueError):
        slot_histogram([])


def test_results_equal_discriminates():
    a = fake_result(3, slots=np.zeros(320))
    b = fake_result(3, slots=np.zeros(320))
    assert results_equal(a, b)
    c = fake_result(4)
    assert not results_equal(a, c)
    d = fake_result(3, slots=np.full(320, 1e-16))
    assert not results_equal(a, d)


def test_results_compare_with_eq_and_are_not_hashable():
    # Array fields are compared bit for bit, not element-wise.
    assert ReplicationResult(10, {}, np.zeros(3)) == ReplicationResult(10, {}, np.zeros(3))
    assert ReplicationResult(10, {}, np.zeros(3)) != ReplicationResult(10, {}, np.ones(3))
    assert fake_result(3) != fake_result(4)
    assert fake_result(3) != "a result"
    with pytest.raises(TypeError):
        hash(fake_result(3))
