"""The static reach table against the independent reference SNR model."""

import math

import pytest

from eonjam.control_plane import static_reach
from eonjam.phy import MODULATIONS

import reference_model as ref

BANDWIDTHS = (40.0, 200.0, 400.0)

# Verdicts this close to a threshold are left to rounding; the benchmark's
# static-reach check uses the same margin.
MARGIN_DB = 1e-6


def ref_width(gbps, bits):
    return math.ceil(gbps / (ref.SLOT_HZ / 1e9 * bits))


def ref_empty_network_db(route, width):
    bandwidth = width * ref.SLOT_HZ
    target = (0.0, bandwidth, ref.TX_POWER_W / bandwidth, False)
    per_link = [(link.span_count, []) for link in route.links]
    return 10.0 * math.log10(ref.ref_snr(target, per_link, None))


def ordered_pairs(topology):
    return [(s, d) for s in topology.nodes for d in topology.nodes if s != d]


def test_reach_table_matches_the_reference_verdicts(nsf):
    compared = 0
    for source, destination in ordered_pairs(nsf):
        route = nsf.shortest_path(source, destination)
        for gbps in BANDWIDTHS:
            reach = static_reach(route, gbps)
            kept = {modulation.name: width for modulation, width in reach.formats}
            pruned_widths = []
            for modulation in MODULATIONS:
                width = ref_width(gbps, modulation.bits_per_symbol)
                margin = ref_empty_network_db(route, width) - modulation.snr_threshold_db
                if modulation.name not in kept:
                    pruned_widths.append(width)
                if abs(margin) <= MARGIN_DB:
                    continue
                compared += 1
                key = (source, destination, gbps, modulation.name)
                assert (modulation.name in kept) == (margin > 0.0), key
                if modulation.name in kept:
                    assert kept[modulation.name] == width, key
            assert reach.narrowest_pruned_width == min(pruned_widths, default=None)
    assert compared > 0.99 * len(ordered_pairs(nsf)) * len(BANDWIDTHS) * len(MODULATIONS)


@pytest.mark.parametrize("gbps, servable", [(40.0, 182), (200.0, 102), (400.0, 42)])
def test_servable_pair_counts(nsf, gbps, servable):
    pairs = ordered_pairs(nsf)
    assert len(pairs) == 182
    carried = [
        (s, d) for s, d in pairs if static_reach(nsf.shortest_path(s, d), gbps).formats
    ]
    assert len(carried) == servable
