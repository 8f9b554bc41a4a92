import pytest

from eonjam.jammer import (
    DEFAULT_JAMMED_RANGES,
    GroundTruth,
    JammerConfig,
    ground_truth_channels,
    resolve_target,
)
from eonjam.phy import db_to_linear
from eonjam.spectrum import SlotBlock


def test_default_ranges():
    assert [(b.start, b.width) for b in DEFAULT_JAMMED_RANGES] == [
        (50, 10),
        (140, 10),
        (230, 10),
    ]


def test_config_validation():
    with pytest.raises(ValueError):
        JammerConfig(target="L1", epsilon_db=-0.5)
    with pytest.raises(ValueError):
        JammerConfig(target="L1", jammed_ranges=(SlotBlock(315, 10),))
    with pytest.raises(ValueError):
        JammerConfig(target="L1", jammed_ranges=(SlotBlock(50, 10), SlotBlock(55, 10)))
    with pytest.raises(ValueError):
        JammerConfig(target="L1", jammed_ranges=())


@pytest.mark.parametrize("epsilon_db", [float("nan"), float("inf"), float("-inf")])
def test_config_rejects_non_finite_epsilon(epsilon_db):
    with pytest.raises(ValueError, match="finite"):
        JammerConfig(target="L1", epsilon_db=epsilon_db)


def test_resolve_explicit():
    config = JammerConfig(target="L7")
    assert resolve_target(config, None) == "L7"


def test_resolve_most_and_least_used():
    ranking = [("L3", 0.6), ("L1", 0.2)]
    assert resolve_target(JammerConfig(target="most_used"), ranking) == "L3"
    assert resolve_target(JammerConfig(target="least_used"), ranking) == "L1"


def test_resolve_selector_needs_ranking():
    with pytest.raises(ValueError):
        resolve_target(JammerConfig(target="most_used"), [])


def test_ground_truth_inert_at_zero(params):
    gt = ground_truth_channels(JammerConfig(target="L1", epsilon_db=0.0), params)
    assert gt.epsilon_w == 0.0
    assert len(gt.channels) == 3


def test_ground_truth_default_channels(params):
    gt = ground_truth_channels(JammerConfig(target="L1", epsilon_db=1.0), params)
    for channel in gt.channels:
        assert channel.is_jammer
        assert channel.bandwidth_hz == pytest.approx(1.25e11)
    centers = [c.center_frequency_hz for c in gt.channels]
    assert centers == [pytest.approx(55 * 12.5e9), pytest.approx(145 * 12.5e9), pytest.approx(235 * 12.5e9)]


def test_epsilon_conversion(params):
    gt = ground_truth_channels(JammerConfig(target="L1", epsilon_db=3.0), params)
    assert gt.epsilon_w == pytest.approx(1e-3 * (db_to_linear(3.0) - 1.0), rel=1e-12)
    assert gt.epsilon_w == pytest.approx(0.9953e-3, rel=1e-3)


def test_jammer_power_is_base_plus_epsilon(params):
    gt = ground_truth_channels(JammerConfig(target="L1", epsilon_db=3.0), params)
    for channel in gt.channels:
        power = channel.psd_w_per_hz * channel.bandwidth_hz
        assert power == pytest.approx(params.tx_power_w + gt.epsilon_w, rel=1e-12)


def test_selector_requires_resolution(params):
    with pytest.raises(ValueError):
        ground_truth_channels(JammerConfig(target="most_used"), params)
    gt = ground_truth_channels(
        JammerConfig(target="most_used"), params, target_link_id="L9"
    )
    assert gt.link_id == "L9"


def test_ranges_overlapping(params):
    gt = ground_truth_channels(JammerConfig(target="L1"), params)
    assert gt.ranges_overlapping(SlotBlock(45, 6)) == (SlotBlock(50, 10),)
    assert gt.ranges_overlapping(SlotBlock(45, 5)) == ()
    assert gt.ranges_overlapping(SlotBlock(55, 100)) == (SlotBlock(50, 10), SlotBlock(140, 10))
