import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eonjam.phy import (
    _LOG_RATIOS,
    G0_ASE,
    MODULATIONS,
    PHI,
    RHO,
    SLOT_WIDTH_HZ,
    TX_POWER_W,
    Channel,
    PhyModelError,
    ase_psd,
    channel_for_block,
    db_to_linear,
    inband_jamming_psd,
    jamming_psd,
    linear_to_db,
    qot_verdict,
    sci_psd,
    slot_center_frequency,
    snr,
    xci_from,
    xci_onto,
    xci_psd,
)
from eonjam.spectrum import SLOT_COUNT, SlotBlock
from eonjam.topology import load_topology

import reference_model as ref


def route_of_spans(*span_counts):
    """A chain topology whose links have the requested span counts."""
    nodes = [f"n{i}" for i in range(len(span_counts) + 1)]
    lines = ["nodes: " + " ".join(nodes)]
    for i, spans in enumerate(span_counts):
        lines.append(f"link: {nodes[i]} {nodes[i + 1]} {spans * 100}")
    topo = load_topology("\n".join(lines))
    return topo.shortest_path(nodes[0], nodes[-1])


def test_db_conversions():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(3.0) == pytest.approx(1.9953, abs=1e-4)
    assert linear_to_db(db_to_linear(6.0)) == pytest.approx(6.0, rel=1e-12)


def test_linear_to_db_rejects_non_positive():
    with pytest.raises(ValueError):
        linear_to_db(0.0)
    with pytest.raises(ValueError):
        linear_to_db(-1.0)


@given(st.floats(min_value=-60, max_value=60))
@settings(max_examples=100)
def test_db_roundtrip_identity(x_db):
    assert linear_to_db(db_to_linear(x_db)) == pytest.approx(x_db, rel=1e-12, abs=1e-12)


def test_derived_coefficients():
    # Bit for bit: every noise term, and so every CSV, rests on these.
    assert PHI == ref.PHI
    assert RHO == ref.RHO
    assert TX_POWER_W == ref.TX_POWER_W
    assert SLOT_WIDTH_HZ == ref.SLOT_HZ
    assert RHO * SLOT_WIDTH_HZ**2 == pytest.approx(0.268, abs=5e-4)


def test_slot_center_frequency():
    assert slot_center_frequency(SlotBlock(0, 2)) == pytest.approx(1.25e10)
    assert slot_center_frequency(SlotBlock(10, 4)) == pytest.approx(1.5e11)
    spacing = abs(
        slot_center_frequency(SlotBlock(0, 2))
        - slot_center_frequency(SlotBlock(10, 4))
    )
    assert spacing == pytest.approx(1.375e11)


def test_g0_ase_value():
    assert G0_ASE == ref.ref_g0_ase()
    assert G0_ASE == pytest.approx(5.0402e-17, rel=1e-4)


def test_a_channel_must_lie_inside_the_grid():
    # A channel grows the log-ratio tables out to its centre, so one far
    # past the grid would cost memory in proportion to its position.
    assert channel_for_block(SlotBlock(SLOT_COUNT - 2, 2)).block.end == SLOT_COUNT
    lengths = {width: len(table) for width, table in _LOG_RATIOS.items()}
    with pytest.raises(PhyModelError, match="inside"):
        channel_for_block(SlotBlock(SLOT_COUNT - 1, 2))
    with pytest.raises(PhyModelError, match="inside"):
        channel_for_block(SlotBlock(0, SLOT_COUNT + 1), power_w=1.0, is_jammer=True)
    assert {width: len(table) for width, table in _LOG_RATIOS.items()} == lengths


def test_ase_accumulates_spans():
    one = route_of_spans(1)
    assert ase_psd(one) == pytest.approx(G0_ASE, rel=1e-12)
    five = route_of_spans(3, 2)
    assert ase_psd(five) == pytest.approx(5 * G0_ASE, rel=1e-12)


def test_ase_split_link_invariance():
    assert ase_psd(route_of_spans(5)) == pytest.approx(
        ase_psd(route_of_spans(2, 3)), rel=1e-12
    )


def test_nli_self_term_only():
    target = channel_for_block(SlotBlock(0, 1))
    g = target.psd_w_per_hz
    expected = 3 * PHI * g**3 * math.asinh(RHO * target.bandwidth_hz**2)
    assert sci_psd(target, 3) == pytest.approx(expected, rel=1e-12)


def test_nli_symmetric_cochannels_contribute_equally():
    target = channel_for_block(SlotBlock(10, 2))
    below = channel_for_block(SlotBlock(4, 2))
    above = channel_for_block(SlotBlock(16, 2))
    assert xci_psd(target, below, 2) > 0.0
    assert xci_psd(target, below, 2) == pytest.approx(
        xci_psd(target, above, 2), rel=1e-12
    )


def test_nli_rejects_overlap():
    target = channel_for_block(SlotBlock(10, 4))
    overlapping = channel_for_block(SlotBlock(11, 2))
    with pytest.raises(PhyModelError):
        xci_psd(target, overlapping, 1)


def _pair_xci(target, other, span_count):
    """The per-pair cross-channel formula, written out as the kernels had it."""
    spacing = abs(target.center_frequency_hz - other.center_frequency_hz)
    half = other.bandwidth_hz / 2.0
    return (
        span_count
        * PHI
        * target.psd_w_per_hz
        * other.psd_w_per_hz**2
        * math.log((spacing + half) / (spacing - half))
    )


@st.composite
def _link_layouts(draw):
    """Non-overlapping channels on one 320-slot link, and their span counts.

    Returns the channels in slot order (random widths, gaps and launch
    powers) and one span count per hop; every hop carries a random
    subset of the channels.
    """
    channels = []
    count = draw(st.integers(1, 12))
    start = draw(st.integers(0, 20))
    while len(channels) < count:
        width = draw(st.integers(1, 16))
        if start + width > 320:
            break
        power = draw(st.floats(1e-4, 1e-2))
        channels.append(channel_for_block(SlotBlock(start, width), power_w=power))
        start += width + draw(st.integers(0, 30))
    hops = draw(
        st.lists(
            st.tuples(st.integers(1, 40), st.sets(st.integers(0, len(channels) - 1))),
            min_size=1,
            max_size=4,
        )
    )
    return channels, hops


@given(_link_layouts(), st.data())
@settings(max_examples=300, deadline=None)
def test_xci_kernels_equal_the_per_pair_sum_exactly(layout, data):
    # Each kernel walks the whole route in one call and hoists the factor
    # fixed across a hop; a hoisted prefix keeps the left-to-right
    # product, so every sum is equal to the per-pair, hop-by-hop
    # accumulation to the bit.
    channels, hops = layout
    focus = data.draw(st.integers(0, len(channels) - 1))
    own = channels[focus]

    total = expected = data.draw(st.floats(0.0, 1e-20))
    deltas, expected_deltas = {}, {}
    route = []
    for span_count, members in hops:
        others = [(k, channels[k]) for k in sorted(members) if k != focus]
        route.append((span_count, {k: c.record for k, c in others}))
        for k, other in others:
            term = _pair_xci(own, other, span_count)
            assert term == xci_psd(own, other, span_count)
            expected += term
            term = _pair_xci(other, own, span_count)
            assert term == xci_psd(other, own, span_count)
            expected_deltas[k] = expected_deltas.get(k, 0.0) + term
    total = xci_onto(own.record, route, total)
    xci_from(own.record, route, deltas)
    assert total == expected
    assert deltas == expected_deltas

    overlapping = channel_for_block(
        SlotBlock(int(own.center_frequency_hz // SLOT_WIDTH_HZ), 1)
    )
    span_count = hops[0][0]
    with pytest.raises(PhyModelError):
        others = dict(enumerate(c.record for c in channels[:focus] + [overlapping]))
        xci_onto(own.record, [(span_count, others)], 0.0)
    with pytest.raises(PhyModelError):
        xci_from(overlapping.record, [(span_count, {focus: own.record})], {})


def test_log_ratio_tables_equal_the_ratio_in_hertz_on_the_whole_grid():
    # Every width 1-32 against a one- or two-slot channel at every centre
    # spacing the 320-slot grid allows, either way round; both kernels
    # read the table.
    for width in range(1, 33):
        source = channel_for_block(SlotBlock(0, width))
        half_hz = source.bandwidth_hz / 2.0
        for spacing in range(0, 640 - width):
            center = width + spacing  # in half-slots
            target_width = 1 if center % 2 else 2
            target = channel_for_block(SlotBlock((center - target_width) // 2, target_width))
            assert abs(target.record[0] - source.record[0]) == spacing
            if spacing <= width:
                with pytest.raises(PhyModelError):
                    xci_onto(target.record, [(1, {0: source.record})], 0.0)
                with pytest.raises(PhyModelError):
                    xci_from(source.record, [(1, {0: target.record})], {})
                continue
            spacing_hz = abs(target.center_frequency_hz - source.center_frequency_hz)
            expected = math.log((spacing_hz + half_hz) / (spacing_hz - half_hz))
            assert _LOG_RATIOS[width][spacing] == expected
            assert _LOG_RATIOS[width][-spacing] == expected


def _jammer(block, eps):
    return channel_for_block(block, power_w=TX_POWER_W + eps, is_jammer=True)


def test_jamming_zero_epsilon():
    target = channel_for_block(SlotBlock(0, 2))
    jammers = [_jammer(SlotBlock(50, 10), 0.0), _jammer(SlotBlock(1, 4), 0.0)]
    assert jamming_psd(target, 3, jammers, 0.0) == 0.0


def test_jamming_empty_set():
    target = channel_for_block(SlotBlock(0, 2))
    assert jamming_psd(target, 3, [], 1e-3) == 0.0


def test_jamming_equals_elevated_minus_baseline_cochannel():
    # One jammed channel's excess NLI must equal the cross-channel NLI of
    # the same channel at power P + eps minus the one at power P.
    eps = 1e-3 * (db_to_linear(3.0) - 1.0)
    block = SlotBlock(50, 10)
    target = channel_for_block(SlotBlock(30, 2))
    value = jamming_psd(target, 2, [_jammer(block, eps)], eps)

    elevated = channel_for_block(block, power_w=TX_POWER_W + eps)
    baseline = channel_for_block(block)
    brute = xci_psd(target, elevated, 2) - xci_psd(target, baseline, 2)
    assert value == pytest.approx(brute, rel=1e-9)


def test_jamming_overlap_is_inband():
    target = channel_for_block(SlotBlock(48, 4))
    jam = _jammer(SlotBlock(50, 10), 1e-3)
    assert jamming_psd(target, 5, [jam], 1e-3) == inband_jamming_psd(target, jam, 1e-3)


def test_inband_overlap_fraction():
    jam = channel_for_block(SlotBlock(50, 10), is_jammer=True)
    eps = 2e-3
    inside = channel_for_block(SlotBlock(52, 2))
    assert inband_jamming_psd(inside, jam, eps) == pytest.approx(
        eps / jam.bandwidth_hz, rel=1e-12
    )
    partial = channel_for_block(SlotBlock(48, 4))  # 2 of 4 slots overlap
    assert inband_jamming_psd(partial, jam, eps) == pytest.approx(
        (eps / jam.bandwidth_hz) * 0.5, rel=1e-12
    )
    outside = channel_for_block(SlotBlock(40, 4))
    assert inband_jamming_psd(outside, jam, eps) == 0.0
    assert inband_jamming_psd(inside, jam, 0.0) == 0.0


def _per_link_with_jammer(span_counts, jam_blocks, eps, cochannels=()):
    state = []
    for spans in span_counts:
        channels = list(cochannels)
        channels += [_jammer(b, eps) for b in jam_blocks]
        state.append(channels)
    return state


def test_snr_jammer_none_equals_zero_epsilon():
    route = route_of_spans(2, 1)
    target = channel_for_block(SlotBlock(0, 2))
    no_jam = snr(target, route, [[], []], None)
    with_inert = snr(
        target,
        route,
        _per_link_with_jammer((2, 1), [SlotBlock(50, 10)], 0.0),
        0.0,
    )
    assert no_jam == with_inert


def test_snr_decreases_with_spans():
    target = channel_for_block(SlotBlock(0, 2))
    short = snr(target, route_of_spans(2), [[]], None)
    long = snr(target, route_of_spans(4), [[]], None)
    assert long < short


def test_snr_strictly_decreasing_in_epsilon():
    route = route_of_spans(2)
    target = channel_for_block(SlotBlock(40, 2))
    values = []
    for eps_db in (0.0, 1.0, 3.0, 5.0):
        eps = TX_POWER_W * (db_to_linear(eps_db) - 1.0)
        state = _per_link_with_jammer((2,), [SlotBlock(50, 10)], eps)
        values.append(snr(target, route, state, eps))
    assert values[0] > values[1] > values[2] > values[3]


def test_out_of_band_decay_with_distance():
    route = route_of_spans(2)
    eps = TX_POWER_W * (db_to_linear(5.0) - 1.0)
    jam_noise = []
    for start in (40, 30, 20, 10):
        target = channel_for_block(SlotBlock(start, 2))
        state = _per_link_with_jammer((2,), [SlotBlock(50, 10)], eps)
        clean = snr(target, route, [[]], None)
        jammed = snr(target, route, state, eps)
        jam_noise.append(
            target.psd_w_per_hz / jammed - target.psd_w_per_hz / clean
        )
    assert jam_noise[0] > jam_noise[1] > jam_noise[2] > jam_noise[3] > 0


def test_qot_verdict_boundaries():
    bpsk = MODULATIONS[0]
    assert qot_verdict(db_to_linear(9.0), bpsk)
    assert not qot_verdict(db_to_linear(8.99), bpsk)
    qam64 = MODULATIONS[-1]
    assert qot_verdict(db_to_linear(21.0), qam64)


def _steps_around(x, count):
    """``x`` and the ``count`` floats on either side of it."""
    below, above = [], []
    low = high = x
    for _ in range(count):
        low = math.nextafter(low, 0.0)
        high = math.nextafter(high, math.inf)
        below.append(low)
        above.append(high)
    return below + [x] + above


@pytest.mark.parametrize("modulation", MODULATIONS, ids=lambda m: m.name)
def test_qot_verdict_equals_the_db_comparison_around_the_threshold(modulation):
    # Outside its band the verdict is read from a band edge without a
    # logarithm; on every float near the threshold and near both edges
    # it must equal the comparison in dB.
    threshold = modulation.snr_threshold_db
    low, high = modulation.qot_band
    assert low < db_to_linear(threshold) < high
    for centre in (db_to_linear(threshold), low, high):
        for x in _steps_around(centre, 10_000):
            assert qot_verdict(x, modulation) == (linear_to_db(x) >= threshold), x


@given(st.sampled_from(MODULATIONS), st.data())
@settings(max_examples=2000, deadline=None)
def test_qot_verdict_equals_the_db_comparison(modulation, data):
    # Drawn anywhere, or within a relative 1e-8 of the linear threshold.
    linear = db_to_linear(modulation.snr_threshold_db)
    x = data.draw(
        st.one_of(
            st.floats(min_value=1e-300, max_value=1e300),
            st.floats(min_value=-1e-8, max_value=1e-8).map(lambda r: linear * (1.0 + r)),
        )
    )
    assert qot_verdict(x, modulation) == (linear_to_db(x) >= modulation.snr_threshold_db)


def test_modulation_table_matches_convention():
    names = [m.name for m in MODULATIONS]
    bits = [m.bits_per_symbol for m in MODULATIONS]
    thresholds = [m.snr_threshold_db for m in MODULATIONS]
    assert names == ["BPSK", "QPSK", "8QAM", "16QAM", "32QAM", "64QAM"]
    assert bits == [1, 2, 3, 4, 5, 6]
    assert thresholds == [9.0, 9.0, 12.0, 15.0, 18.0, 21.0]
    assert thresholds == sorted(thresholds)


def test_snr_matches_reference_on_desk_configuration():
    # Three channels on one span plus a jammer: compare against the
    # straight-line reference model end to end.
    route = route_of_spans(1)
    target = channel_for_block(SlotBlock(44, 2))
    neighbours = [
        channel_for_block(SlotBlock(40, 2)),
        channel_for_block(SlotBlock(48, 1)),
    ]
    eps = TX_POWER_W * (db_to_linear(3.0) - 1.0)
    jam = channel_for_block(
        SlotBlock(50, 10), power_w=TX_POWER_W + eps, is_jammer=True
    )
    value = snr(target, route, [neighbours + [jam]], eps)

    as_tuple = lambda c: (c.center_frequency_hz, c.bandwidth_hz, c.psd_w_per_hz, c.is_jammer)
    expected = ref.ref_snr(
        as_tuple(target),
        [(1, [as_tuple(c) for c in neighbours + [jam]])],
        eps,
    )
    assert value == pytest.approx(expected, rel=1e-9)
