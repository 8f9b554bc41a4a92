import math

import pytest

from eonjam.jammer import (
    DEFAULT_JAMMED_RANGES,
    MAX_EPSILON_DB,
    GroundTruth,
    JammerConfig,
    ground_truth_channels,
    resolve_target,
)
from eonjam.phy import TX_POWER_W, channel_for_block, db_to_linear, jamming_psd
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


def test_config_bounds_epsilon_far_below_float_overflow():
    with pytest.raises(ValueError, match="<= 100.0"):
        JammerConfig(target="L1", epsilon_db=1700.0)
    with pytest.raises(ValueError, match="<= 100.0"):
        JammerConfig(target="L1", epsilon_db=MAX_EPSILON_DB + 1e-9)
    # At the bound every jamming term is still a finite float.
    gt = ground_truth_channels(JammerConfig(target="L1", epsilon_db=MAX_EPSILON_DB))
    assert all(math.isfinite(value) for channel in gt.channels for value in channel.record)
    for block in (SlotBlock(0, 4), SlotBlock(52, 4)):  # beside and inside a jammed range
        noise = jamming_psd(channel_for_block(block), 10, gt.channels, gt.epsilon_w)
        assert 0.0 < noise < math.inf


def test_the_jamming_table_prices_each_block_and_span_count_once(monkeypatch):
    from eonjam import jammer

    gt = ground_truth_channels(JammerConfig(target="L1", epsilon_db=2.5))
    priced = []

    def counted(*args):
        priced.append(args[:2])
        return jamming_psd(*args)

    monkeypatch.setattr(jammer, "jamming_psd", counted)
    cases = [(SlotBlock(0, 4), 3), (SlotBlock(52, 4), 3), (SlotBlock(0, 4), 7)]
    for _ in range(3):
        for block, spans in cases:
            channel = channel_for_block(block)
            expected = jamming_psd(channel, spans, gt.channels, gt.epsilon_w)
            assert gt.jamming_psd(channel, spans) == expected
    assert [(channel.block, spans) for channel, spans in priced] == cases
    # The table is a cache: it leaves equality and the attack's fields alone.
    assert gt == ground_truth_channels(JammerConfig(target="L1", epsilon_db=2.5))


def test_ground_truth_needs_its_jammed_ranges():
    with pytest.raises(TypeError):
        GroundTruth(link_id="L1", channels=(), epsilon_w=0.0)


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


def test_ground_truth_inert_at_zero():
    gt = ground_truth_channels(JammerConfig(target="L1", epsilon_db=0.0))
    assert gt.epsilon_w == 0.0
    assert len(gt.channels) == 3


def test_ground_truth_default_channels():
    gt = ground_truth_channels(JammerConfig(target="L1", epsilon_db=1.0))
    for channel in gt.channels:
        assert channel.is_jammer
        assert channel.bandwidth_hz == pytest.approx(1.25e11)
    centers = [c.center_frequency_hz for c in gt.channels]
    assert centers == [pytest.approx(55 * 12.5e9), pytest.approx(145 * 12.5e9), pytest.approx(235 * 12.5e9)]


def test_epsilon_conversion():
    gt = ground_truth_channels(JammerConfig(target="L1", epsilon_db=3.0))
    assert gt.epsilon_w == pytest.approx(1e-3 * (db_to_linear(3.0) - 1.0), rel=1e-12)
    assert gt.epsilon_w == pytest.approx(0.9953e-3, rel=1e-3)


def test_jammer_power_is_base_plus_epsilon():
    gt = ground_truth_channels(JammerConfig(target="L1", epsilon_db=3.0))
    for channel in gt.channels:
        power = channel.psd_w_per_hz * channel.bandwidth_hz
        assert power == pytest.approx(TX_POWER_W + gt.epsilon_w, rel=1e-12)


def test_selector_requires_resolution():
    with pytest.raises(ValueError):
        ground_truth_channels(JammerConfig(target="most_used"))
    gt = ground_truth_channels(
        JammerConfig(target="most_used"), target_link_id="L9"
    )
    assert gt.link_id == "L9"


def test_ranges_overlapping():
    gt = ground_truth_channels(JammerConfig(target="L1"))
    assert gt.ranges_overlapping(SlotBlock(45, 6)) == (SlotBlock(50, 10),)
    assert gt.ranges_overlapping(SlotBlock(45, 5)) == ()
    assert gt.ranges_overlapping(SlotBlock(55, 100)) == (SlotBlock(50, 10), SlotBlock(140, 10))
