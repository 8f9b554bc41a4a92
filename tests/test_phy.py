import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eonjam.phy import (
    _LOG_RATIOS,
    MODULATIONS,
    Channel,
    PhyModelError,
    PhyParams,
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
from eonjam.spectrum import SlotBlock
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


def test_params_reject_non_positive():
    with pytest.raises(ValueError):
        PhyParams(slot_width_hz=0.0)
    with pytest.raises(ValueError):
        PhyParams(noise_figure_db=-1.0)


def test_derived_coefficients(params):
    assert params.phi == pytest.approx(ref.PHI, rel=1e-12)
    assert params.rho == pytest.approx(ref.RHO, rel=1e-12)
    assert params.rho * params.slot_width_hz**2 == pytest.approx(0.268, abs=5e-4)


def test_slot_center_frequency(params):
    assert slot_center_frequency(SlotBlock(0, 2), params) == pytest.approx(1.25e10)
    assert slot_center_frequency(SlotBlock(10, 4), params) == pytest.approx(1.5e11)
    spacing = abs(
        slot_center_frequency(SlotBlock(0, 2), params)
        - slot_center_frequency(SlotBlock(10, 4), params)
    )
    assert spacing == pytest.approx(1.375e11)


def test_g0_ase_value(params):
    assert params.g0_ase == pytest.approx(ref.ref_g0_ase(), rel=1e-12)
    assert params.g0_ase == pytest.approx(5.0402e-17, rel=1e-4)


def test_g0_ase_limits():
    # A lossless span needs no gain, so its amplifier adds no noise.
    assert PhyParams(attenuation_db_per_km=1e-12).g0_ase == pytest.approx(0.0, abs=1e-25)
    tiny_noise = PhyParams(noise_figure_db=1e-12)
    full_noise = PhyParams()
    ratio = full_noise.g0_ase / tiny_noise.g0_ase
    assert ratio == pytest.approx(db_to_linear(6.0), rel=1e-9)


def test_ase_accumulates_spans(params):
    one = route_of_spans(1)
    assert ase_psd(one, params) == pytest.approx(params.g0_ase, rel=1e-12)
    five = route_of_spans(3, 2)
    assert ase_psd(five, params) == pytest.approx(5 * params.g0_ase, rel=1e-12)


def test_ase_split_link_invariance(params):
    assert ase_psd(route_of_spans(5), params) == pytest.approx(
        ase_psd(route_of_spans(2, 3), params), rel=1e-12
    )


def test_nli_self_term_only(params):
    target = channel_for_block(SlotBlock(0, 1), params)
    g = target.psd_w_per_hz
    expected = 3 * params.phi * g**3 * math.asinh(params.rho * target.bandwidth_hz**2)
    assert sci_psd(target, 3, params) == pytest.approx(expected, rel=1e-12)


def test_nli_symmetric_cochannels_contribute_equally(params):
    target = channel_for_block(SlotBlock(10, 2), params)
    below = channel_for_block(SlotBlock(4, 2), params)
    above = channel_for_block(SlotBlock(16, 2), params)
    assert xci_psd(target, below, 2, params) > 0.0
    assert xci_psd(target, below, 2, params) == pytest.approx(
        xci_psd(target, above, 2, params), rel=1e-12
    )


def test_nli_rejects_overlap(params):
    target = channel_for_block(SlotBlock(10, 4), params)
    overlapping = channel_for_block(SlotBlock(11, 2), params)
    with pytest.raises(PhyModelError):
        xci_psd(target, overlapping, 1, params)


def _pair_xci(target, other, span_count, params):
    """The per-pair cross-channel formula, written out as the kernels had it."""
    spacing = abs(target.center_frequency_hz - other.center_frequency_hz)
    half = other.bandwidth_hz / 2.0
    return (
        span_count
        * params.phi
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
        channels.append(channel_for_block(SlotBlock(start, width), PhyParams(), power_w=power))
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
    params = PhyParams()
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
            term = _pair_xci(own, other, span_count, params)
            assert term == xci_psd(own, other, span_count, params)
            expected += term
            term = _pair_xci(other, own, span_count, params)
            assert term == xci_psd(other, own, span_count, params)
            expected_deltas[k] = expected_deltas.get(k, 0.0) + term
    total = xci_onto(own.record, route, params, total)
    xci_from(own.record, route, params, deltas)
    assert total == expected
    assert deltas == expected_deltas

    overlapping = channel_for_block(
        SlotBlock(int(own.center_frequency_hz // params.slot_width_hz), 1), params
    )
    span_count = hops[0][0]
    with pytest.raises(PhyModelError):
        others = dict(enumerate(c.record for c in channels[:focus] + [overlapping]))
        xci_onto(own.record, [(span_count, others)], params, 0.0)
    with pytest.raises(PhyModelError):
        xci_from(overlapping.record, [(span_count, {focus: own.record})], params, {})


def test_log_ratio_tables_equal_the_ratio_in_hertz_on_the_whole_grid(params):
    # Every width 1-32 against a one- or two-slot channel at every centre
    # spacing the 320-slot grid allows, either way round; both kernels
    # read the table.
    for width in range(1, 33):
        source = channel_for_block(SlotBlock(0, width), params)
        half_hz = source.bandwidth_hz / 2.0
        for spacing in range(0, 640 - width):
            center = width + spacing  # in half-slots
            target_width = 1 if center % 2 else 2
            target = channel_for_block(SlotBlock((center - target_width) // 2, target_width), params)
            assert abs(target.record[0] - source.record[0]) == spacing
            if spacing <= width:
                with pytest.raises(PhyModelError):
                    xci_onto(target.record, [(1, {0: source.record})], params, 0.0)
                with pytest.raises(PhyModelError):
                    xci_from(source.record, [(1, {0: target.record})], params, {})
                continue
            spacing_hz = abs(target.center_frequency_hz - source.center_frequency_hz)
            expected = math.log((spacing_hz + half_hz) / (spacing_hz - half_hz))
            assert _LOG_RATIOS[width][spacing] == expected
            assert _LOG_RATIOS[width][-spacing] == expected


def _jammer(block, eps, params):
    return channel_for_block(block, params, power_w=params.tx_power_w + eps, is_jammer=True)


def test_jamming_zero_epsilon(params):
    target = channel_for_block(SlotBlock(0, 2), params)
    jammers = [_jammer(SlotBlock(50, 10), 0.0, params), _jammer(SlotBlock(1, 4), 0.0, params)]
    assert jamming_psd(target, 3, jammers, 0.0, params) == 0.0


def test_jamming_empty_set(params):
    target = channel_for_block(SlotBlock(0, 2), params)
    assert jamming_psd(target, 3, [], 1e-3, params) == 0.0


def test_jamming_equals_elevated_minus_baseline_cochannel(params):
    # One jammed channel's excess NLI must equal the cross-channel NLI of
    # the same channel at power P + eps minus the one at power P.
    eps = 1e-3 * (db_to_linear(3.0) - 1.0)
    block = SlotBlock(50, 10)
    target = channel_for_block(SlotBlock(30, 2), params)
    value = jamming_psd(target, 2, [_jammer(block, eps, params)], eps, params)

    elevated = channel_for_block(block, params, power_w=params.tx_power_w + eps)
    baseline = channel_for_block(block, params)
    brute = xci_psd(target, elevated, 2, params) - xci_psd(target, baseline, 2, params)
    assert value == pytest.approx(brute, rel=1e-9)


def test_jamming_overlap_is_inband(params):
    target = channel_for_block(SlotBlock(48, 4), params)
    jam = _jammer(SlotBlock(50, 10), 1e-3, params)
    assert jamming_psd(target, 5, [jam], 1e-3, params) == inband_jamming_psd(target, jam, 1e-3)


def test_inband_overlap_fraction(params):
    jam = channel_for_block(SlotBlock(50, 10), params, is_jammer=True)
    eps = 2e-3
    inside = channel_for_block(SlotBlock(52, 2), params)
    assert inband_jamming_psd(inside, jam, eps) == pytest.approx(
        eps / jam.bandwidth_hz, rel=1e-12
    )
    partial = channel_for_block(SlotBlock(48, 4), params)  # 2 of 4 slots overlap
    assert inband_jamming_psd(partial, jam, eps) == pytest.approx(
        (eps / jam.bandwidth_hz) * 0.5, rel=1e-12
    )
    outside = channel_for_block(SlotBlock(40, 4), params)
    assert inband_jamming_psd(outside, jam, eps) == 0.0
    assert inband_jamming_psd(inside, jam, 0.0) == 0.0


def _per_link_with_jammer(params, span_counts, jam_blocks, eps, cochannels=()):
    state = []
    for spans in span_counts:
        channels = list(cochannels)
        channels += [_jammer(b, eps, params) for b in jam_blocks]
        state.append(channels)
    return state


def test_snr_jammer_none_equals_zero_epsilon(params):
    route = route_of_spans(2, 1)
    target = channel_for_block(SlotBlock(0, 2), params)
    no_jam = snr(target, route, [[], []], None, params)
    with_inert = snr(
        target,
        route,
        _per_link_with_jammer(params, (2, 1), [SlotBlock(50, 10)], 0.0),
        0.0,
        params,
    )
    assert no_jam == with_inert


def test_snr_decreases_with_spans(params):
    target = channel_for_block(SlotBlock(0, 2), params)
    short = snr(target, route_of_spans(2), [[]], None, params)
    long = snr(target, route_of_spans(4), [[]], None, params)
    assert long < short


def test_snr_strictly_decreasing_in_epsilon(params):
    route = route_of_spans(2)
    target = channel_for_block(SlotBlock(40, 2), params)
    values = []
    for eps_db in (0.0, 1.0, 3.0, 5.0):
        eps = params.tx_power_w * (db_to_linear(eps_db) - 1.0)
        state = _per_link_with_jammer(params, (2,), [SlotBlock(50, 10)], eps)
        values.append(snr(target, route, state, eps, params))
    assert values[0] > values[1] > values[2] > values[3]


def test_out_of_band_decay_with_distance(params):
    route = route_of_spans(2)
    eps = params.tx_power_w * (db_to_linear(5.0) - 1.0)
    jam_noise = []
    for start in (40, 30, 20, 10):
        target = channel_for_block(SlotBlock(start, 2), params)
        state = _per_link_with_jammer(params, (2,), [SlotBlock(50, 10)], eps)
        clean = snr(target, route, [[]], None, params)
        jammed = snr(target, route, state, eps, params)
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


def test_snr_matches_reference_on_desk_configuration(params):
    # Three channels on one span plus a jammer: compare against the
    # straight-line reference model end to end.
    route = route_of_spans(1)
    target = channel_for_block(SlotBlock(44, 2), params)
    neighbours = [
        channel_for_block(SlotBlock(40, 2), params),
        channel_for_block(SlotBlock(48, 1), params),
    ]
    eps = params.tx_power_w * (db_to_linear(3.0) - 1.0)
    jam = channel_for_block(
        SlotBlock(50, 10), params, power_w=params.tx_power_w + eps, is_jammer=True
    )
    value = snr(target, route, [neighbours + [jam]], eps, params)

    as_tuple = lambda c: (c.center_frequency_hz, c.bandwidth_hz, c.psd_w_per_hz, c.is_jammer)
    expected = ref.ref_snr(
        as_tuple(target),
        [(1, [as_tuple(c) for c in neighbours + [jam]])],
        eps,
    )
    assert value == pytest.approx(expected, rel=1e-9)
