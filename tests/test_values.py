"""Value semantics of the simulator's record types.

Each type keeps its constructor (positional order, keywords, defaults),
compares and hashes the same fields, keeps its printed ``repr``, refuses
assignment when frozen and survives pickling where a pool job or its
result carries it.
"""

import copy
import math
import pickle

import numpy as np
import pytest

from eonjam.cli import ScenarioConfig
from eonjam.control_plane import Blocked, ControlMode, Lightpath, StaticReach
from eonjam.jammer import DEFAULT_JAMMED_RANGES, GroundTruth, JammerConfig, ground_truth_channels
from eonjam.metrics import ReplicationResult
from eonjam.phy import MODULATIONS, Channel, Modulation, channel_for_block
from eonjam.sim import Request, ScenarioPoint, ScenarioResult, TrafficModel
from eonjam.spectrum import SlotBlock
from eonjam.topology import Link, Route, load_topology, nsfnet


def _link(**changes):
    return Link(**dict(dict(id="A-B", source="A", destination="B", length_km=250.0), **changes))


def _route(**changes):
    return Route(**dict(dict(links=(_link(),), source="A", destination="B"), **changes))


def _channel(**changes):
    fields = dict(block=SlotBlock(4, 3), center_frequency_hz=68.75e9, bandwidth_hz=37.5e9, psd_w_per_hz=2e-14)
    return Channel(**dict(fields, **changes))


def _modulation(**changes):
    return Modulation(**dict(dict(name="QPSK", bits_per_symbol=2, snr_threshold_db=9.0), **changes))


def _ground_truth(**changes):
    fields = dict(
        link_id="8-9",
        channels=(channel_for_block(SlotBlock(50, 10), is_jammer=True),),
        epsilon_w=1e-3,
        jammed_ranges=(SlotBlock(50, 10),),
    )
    return GroundTruth(**dict(fields, **changes))


def _lightpath(**changes):
    fields = dict(
        id=7,
        route=_route(),
        block=SlotBlock(4, 3),
        modulation=MODULATIONS[1],
        bandwidth_gbps=40.0,
        departs_at=600.0,
        channel=_channel(),
        ase_psd=1e-16,
        sci_psd=2e-16,
        jam_psd=0.0,
    )
    return Lightpath(**dict(fields, **changes))


def _static_reach(**changes):
    fields = dict(formats=((MODULATIONS[1], 4),), narrowest_pruned_width=2, ase_psd=1e-16, sci_psds=(2e-16,))
    return StaticReach(**dict(fields, **changes))


def _result(**changes):
    fields = dict(requests=10, blocked_by_reason={"qot-fail": 2}, slot_utilization=np.arange(4.0))
    return ReplicationResult(**dict(fields, **changes))


def _request(**changes):
    fields = dict(id=3, source="A", destination="B", bandwidth_gbps=40.0, arrival_time=1.5, holding_s=600.0)
    return Request(**dict(fields, **changes))


def _point(**changes):
    fields = dict(mode=ControlMode.UNAWARE, target_link_id="8-9", epsilon_db=1.0, results=())
    return ScenarioPoint(**dict(fields, **changes))


def _scenario_result(**changes):
    return ScenarioResult(**dict(dict(points=(_point(),)), **changes))


def _config(**changes):
    fields = dict(
        topology="nsfnet",
        modes=(ControlMode.NO_JAMMING, ControlMode.UNAWARE),
        jammer=JammerConfig(target="8-9"),
        epsilon_sweep=(0.0, 1.0, 0.5),
        traffic=TrafficModel(requests_per_replication=250, replications=1),
        base_seed=1,
        output_dir="out",
    )
    return ScenarioConfig(**dict(fields, **changes))


#: Per type: a builder taking field changes, and a changed value for
#: each compared field, in field order (``Link.span_count`` is derived).
VALUE_TYPES = {
    "SlotBlock": (lambda **c: SlotBlock(**dict(dict(start=3, width=4), **c)), {"start": 2, "width": 5}),
    "Link": (_link, {"id": "B-A", "source": "C", "destination": "C", "length_km": 260.0}),
    "Route": (_route, {"links": (_link(length_km=90.0),), "source": "C", "destination": "C"}),
    "Channel": (
        _channel,
        {
            "block": SlotBlock(5, 3),
            "center_frequency_hz": 1.0,
            "bandwidth_hz": 1.0,
            "psd_w_per_hz": 1e-15,
            "is_jammer": True,
        },
    ),
    "Modulation": (_modulation, {"name": "BPSK", "bits_per_symbol": 1, "snr_threshold_db": 12.0}),
    "JammerConfig": (
        lambda **c: JammerConfig(**dict(dict(target="8-9"), **c)),
        {"target": "most_used", "jammed_ranges": (SlotBlock(0, 5),), "epsilon_db": 2.0},
    ),
    "GroundTruth": (
        _ground_truth,
        {"link_id": "1-2", "channels": (), "epsilon_w": 2e-3, "jammed_ranges": (SlotBlock(0, 5),)},
    ),
    "Lightpath": (
        _lightpath,
        {
            "id": 8,
            "route": _route(source="C"),
            "block": SlotBlock(5, 3),
            "modulation": MODULATIONS[2],
            "bandwidth_gbps": 200.0,
            "departs_at": 601.0,
            "channel": _channel(is_jammer=True),
            "ase_psd": 3e-16,
            "sci_psd": 3e-16,
            "jam_psd": 1e-17,
            "xci_psd": 1e-17,
        },
    ),
    "Blocked": (lambda **c: Blocked(**dict(dict(reason="qot-fail"), **c)), {"reason": "no-spectrum"}),
    "StaticReach": (
        _static_reach,
        {"formats": (), "narrowest_pruned_width": None, "ase_psd": 2e-16, "sci_psds": ()},
    ),
    "TrafficModel": (
        lambda **c: TrafficModel(**c),
        {
            "load_erlangs": 400.0,
            "mean_holding_s": 300.0,
            "bandwidth_choices_gbps": (40.0,),
            "requests_per_replication": 5,
            "replications": 2,
        },
    ),
    "Request": (
        _request,
        {
            "id": 4,
            "source": "C",
            "destination": "D",
            "bandwidth_gbps": 200.0,
            "arrival_time": 2.5,
            "holding_s": 60.0,
        },
    ),
    "ScenarioPoint": (
        _point,
        {"mode": ControlMode.AWARE, "target_link_id": None, "epsilon_db": None, "results": (_result(),)},
    ),
    "ScenarioResult": (_scenario_result, {"points": (), "ranking": (("8-9", 0.5),)}),
    "ReplicationResult": (
        _result,
        {
            "requests": 11,
            "blocked_by_reason": {"qot-fail": 3},
            "slot_utilization": np.arange(1.0, 5.0),
            "slot_utilization_by_link": {"A-B": np.zeros(4)},
            "slot_used_by_link": {"A-B": np.zeros(4)},
            "established": 8,
            "horizon_s": 3.5,
        },
    ),
    "ScenarioConfig": (
        _config,
        {
            "topology": "other.topo",
            "modes": (ControlMode.UNAWARE,),
            "jammer": JammerConfig(target="1-2"),
            "epsilon_sweep": (0.0, 2.0, 0.5),
            "traffic": TrafficModel(requests_per_replication=300, replications=1),
            "base_seed": 2,
            "output_dir": "elsewhere",
            "detection_tolerance_db": 0.2,
            "workers": 2,
        },
    ),
}

UNHASHABLE = {"Lightpath", "ReplicationResult"}
FROZEN = set(VALUE_TYPES) - {"Lightpath"}


def _fields(name):
    return tuple(VALUE_TYPES[name][1])


@pytest.mark.parametrize("name", sorted(VALUE_TYPES))
def test_equal_fields_compare_equal_and_each_field_counts(name):
    build, changed = VALUE_TYPES[name]
    assert build() == build()
    assert not build() != build()
    for field, value in changed.items():
        other = build(**{field: value})
        assert build() != other, field
        assert not build() == other, field
    assert build() != object()
    assert build().__eq__(object()) is NotImplemented


@pytest.mark.parametrize("name", sorted(set(VALUE_TYPES) - UNHASHABLE - {"ScenarioPoint"}))
def test_hash_is_the_hash_of_the_field_tuple(name):
    build, changed = VALUE_TYPES[name]
    value = build()
    fields = tuple(getattr(value, field) for field in changed)
    if name == "Link":
        fields += (value.span_count,)
    assert hash(value) == hash(fields)


def test_a_point_hashes_its_fields_and_refuses_once_it_holds_results():
    point = _point()
    assert hash(point) == hash((ControlMode.UNAWARE, "8-9", 1.0, ()))
    with pytest.raises(TypeError):
        hash(_point(results=(_result(),)))


def test_the_span_count_is_hashed():
    link = _link()
    assert (link.span_count, hash(link)) == (3, hash(("A-B", "A", "B", 250.0, 3)))
    assert repr(link) == "Link(id='A-B', source='A', destination='B', length_km=250.0, span_count=3)"


@pytest.mark.parametrize("name", sorted(UNHASHABLE))
def test_lightpaths_and_results_are_not_hashable(name):
    value = _lightpath() if name == "Lightpath" else _result()
    with pytest.raises(TypeError):
        hash(value)


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_types_refuse_assignment(name):
    build, changed = VALUE_TYPES[name]
    value = build()
    for field, new in changed.items():
        with pytest.raises(AttributeError):
            setattr(value, field, new)
    assert value == build()


def test_lightpaths_take_assignment_and_hold_no_dict():
    lightpath = _lightpath()
    lightpath.xci_psd = 1e-17
    lightpath.cap = 1e-15
    assert (lightpath.xci_psd, lightpath.cap) == (1e-17, 1e-15)
    assert not hasattr(lightpath, "__dict__")
    assert not hasattr(_request(), "__dict__")


def test_defaults():
    assert _lightpath().xci_psd == 0.0
    assert (_lightpath().path, _lightpath().priced, _lightpath().cap) == (None, None, -math.inf)
    assert (JammerConfig("8-9").jammed_ranges, JammerConfig("8-9").epsilon_db) == (DEFAULT_JAMMED_RANGES, 0.0)
    assert _channel().is_jammer is False
    traffic = TrafficModel()
    assert (
        traffic.load_erlangs,
        traffic.mean_holding_s,
        traffic.bandwidth_choices_gbps,
        traffic.requests_per_replication,
        traffic.replications,
    ) == (200.0, 600.0, (40.0, 200.0, 400.0), 100_000, 10)
    result = _result()
    assert (result.slot_utilization_by_link, result.slot_used_by_link) == ({}, {})
    assert (result.established, result.horizon_s) == (0, 0.0)
    assert _result().slot_used_by_link is not _result().slot_used_by_link
    assert ScenarioResult(points=()).ranking is None
    config = _config()
    assert (config.detection_tolerance_db, config.workers) == (0.1, 1)


def test_positional_order():
    assert SlotBlock(3, 4) == SlotBlock(start=3, width=4)
    assert Link("A-B", "A", "B", 250.0) == _link()
    assert Route((_link(),), "A", "B") == _route()
    assert Channel(SlotBlock(4, 3), 68.75e9, 37.5e9, 2e-14, False) == _channel()
    assert Modulation("QPSK", 2, 9.0) == _modulation()
    assert JammerConfig("8-9", DEFAULT_JAMMED_RANGES, 0.0) == JammerConfig(target="8-9")
    truth = _ground_truth()
    assert GroundTruth(truth.link_id, truth.channels, truth.epsilon_w, truth.jammed_ranges) == truth
    lightpath = _lightpath()
    assert (
        Lightpath(7, lightpath.route, SlotBlock(4, 3), MODULATIONS[1], 40.0, 600.0, lightpath.channel, 1e-16, 2e-16, 0.0)
        == lightpath
    )
    assert Blocked("qot-fail") == Blocked(reason="qot-fail")
    assert StaticReach(((MODULATIONS[1], 4),), 2, 1e-16, (2e-16,)) == _static_reach()
    assert TrafficModel(200.0, 600.0, (40.0, 200.0, 400.0), 100_000, 10) == TrafficModel()
    assert Request(3, "A", "B", 40.0, 1.5, 600.0) == _request()
    assert ScenarioPoint(ControlMode.UNAWARE, "8-9", 1.0, ()) == _point()
    assert ScenarioResult((_point(),), None) == _scenario_result()
    config = _config()
    assert ScenarioConfig(*(getattr(config, field) for field in _fields("ScenarioConfig"))) == config
    assert ReplicationResult(10, {"qot-fail": 2}, np.arange(4.0), {}, {}, 0, 0.0) == _result()


def test_derived_and_cached_fields_are_not_compared():
    channel = _channel()
    assert channel.record == (11, 3, 2e-14, 2e-14**2)
    object.__setattr__(channel, "record", (0, 0, 0.0, 0.0))
    assert channel == _channel() and hash(channel) == hash(_channel())
    modulation = _modulation()
    object.__setattr__(modulation, "qot_band", (0.0, 0.0))
    assert modulation == _modulation() and hash(modulation) == hash(_modulation())
    truth = ground_truth_channels(JammerConfig(target="8-9", epsilon_db=2.0))
    truth.jamming_psd(channel_for_block(SlotBlock(48, 4)), 3)
    assert truth._psds
    assert truth == ground_truth_channels(JammerConfig(target="8-9", epsilon_db=2.0))
    lightpath = _lightpath()
    lightpath.path, lightpath.priced, lightpath.cap = object(), (1,), 5.0
    assert lightpath == _lightpath()
    config = _config()
    config.load_topology()
    assert config == _config() and hash(config) == hash(_config())
    route = _route()
    assert route.nodes is route.nodes
    assert (route.nodes, route.total_spans, route.directed_hops) == (("A", "B"), 3, (("A", "B"),))
    assert route == _route() and hash(route) == hash(_route())


def test_printed_reprs():
    block = SlotBlock(315, 10)
    assert repr(block) == str(block) == f"{block}" == "SlotBlock(start=315, width=10)"
    assert repr([SlotBlock(0, 10)]) == "[SlotBlock(start=0, width=10)]"
    with pytest.raises(ValueError, match=r"^jammed range SlotBlock\(start=315, width=10\) exceeds the 320-slot grid$"):
        JammerConfig("8-9", (block,))
    lightpath = _lightpath(path=object(), priced=(1,), cap=5.0)
    assert repr(lightpath) == (
        "Lightpath(id=7, route=Route(links=(Link(id='A-B', source='A', destination='B', length_km=250.0, "
        "span_count=3),), source='A', destination='B'), block=SlotBlock(start=4, width=3), "
        "modulation=Modulation(name='QPSK', bits_per_symbol=2, snr_threshold_db=9.0), bandwidth_gbps=40.0, "
        "departs_at=600.0, channel=Channel(block=SlotBlock(start=4, width=3), center_frequency_hz=68750000000.0, "
        "bandwidth_hz=37500000000.0, psd_w_per_hz=2e-14, is_jammer=False), ase_psd=1e-16, sci_psd=2e-16, "
        "jam_psd=0.0, xci_psd=0.0)"
    )


def test_validation_messages():
    with pytest.raises(ValueError, match="^block start must be >= 0, got -1$"):
        SlotBlock(-1, 2)
    with pytest.raises(ValueError, match="^block width must be >= 1, got 0$"):
        SlotBlock(0, 0)
    with pytest.raises(ValueError, match="^non-positive or non-finite length 0.0$"):
        _link(length_km=0.0)
    with pytest.raises(ValueError, match="^target: required"):
        JammerConfig("", epsilon_db=-1.0)
    with pytest.raises(ValueError, match="^requests_per_replication: must be >= 1$"):
        TrafficModel(requests_per_replication=0, replications=0)
    with pytest.raises(ValueError, match="^modes: at least one mode is required$"):
        _config(modes=(), base_seed=-1)


def _round_trip(value):
    return pickle.loads(pickle.dumps(value))


@pytest.mark.parametrize(
    "value",
    [
        SlotBlock(3, 4),
        TrafficModel(load_erlangs=400.0),
        JammerConfig("most_used", epsilon_db=2.5),
        Request(3, "A", "B", 40.0, 1.5, 600.0),
        Blocked("qot-fail"),
    ],
    ids=["SlotBlock", "TrafficModel", "JammerConfig", "Request", "Blocked"],
)
@pytest.mark.parametrize("duplicate", [_round_trip, copy.copy, copy.deepcopy], ids=["pickle", "copy", "deepcopy"])
def test_values_survive_pickling_and_copying(value, duplicate):
    twin = duplicate(value)
    assert twin == value and hash(twin) == hash(value)
    with pytest.raises(AttributeError):
        setattr(twin, _fields(type(value).__name__)[0], None)


def test_results_survive_pickling():
    result = _result(slot_used_by_link={"A-B": np.ones(4)}, established=8, horizon_s=3.5)
    copy = _round_trip(result)
    assert copy == result
    assert copy != _result()


def test_topologies_survive_pickling():
    topology = nsfnet()
    route = topology.shortest_path("1", "14")
    route.link_spans, route.nodes
    copy = _round_trip(topology)
    assert (copy.nodes, copy.links) == (topology.nodes, topology.links)
    assert [hash(link) for link in copy.links] == [hash(link) for link in topology.links]
    assert copy.shortest_path("1", "14") == route
    assert copy.shortest_path("1", "14").link_spans == route.link_spans
    assert copy.shortest_path("3", "9") == topology.shortest_path("3", "9")
    line = load_topology("nodes: A B\nlink: A B 250\n")
    assert _round_trip(line).link_by_id("A-B") == _link()
