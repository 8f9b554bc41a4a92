#!/usr/bin/env python3
"""How the aware control plane sees an attack.

Builds one candidate circuit at a time against a jammed fibre and
prints the admission verdict chain: the measured-vs-estimated SNR gap,
whether detection fires, and what the plane does about it.

Run:  python demos/detection_walkthrough.py
"""

from eonjam.control_plane import (
    ControlMode,
    NetworkState,
    Verdict,
    _build_candidate,
    detect_jamming,
    evaluate_candidate,
    handle_request,
)
from eonjam.jammer import JammerConfig, ground_truth_channels
from eonjam.phy import MODULATIONS, ase_psd, channel_for_block, linear_to_db, sci_psd
from eonjam.sim import Request
from eonjam.spectrum import SlotBlock, allocate
from eonjam.topology import load_topology

QPSK = next(m for m in MODULATIONS if m.name == "QPSK")

topology = load_topology("nodes: A B\nlink: A B 700\n")
jam = JammerConfig(target="A-B", epsilon_db=1.5)
ground_truth = ground_truth_channels(jam)
state = NetworkState(topology)
route = topology.shortest_path("A", "B")

print(f"attacked fibre A-B, jammed ranges at 50-59 / 140-149 / 230-239,")
print(f"extra power 1.5 dB (epsilon = {ground_truth.epsilon_w * 1e3:.3f} mW)\n")

for label, block in (
    ("far below the range ", SlotBlock(10, 2)),
    ("adjacent to range   ", SlotBlock(46, 2)),
    ("overlapping range   ", SlotBlock(49, 2)),
    ("inside the range    ", SlotBlock(54, 2)),
):
    channel = channel_for_block(block)
    ase, sci = ase_psd(route), sci_psd(channel, route.total_spans)
    candidate = _build_candidate(
        1, state.route_record(route), block, channel, QPSK, 40.0, 0.0, 600.0, state, ground_truth,
        ase, sci,
    )
    measured = linear_to_db(candidate.snr)
    estimated = linear_to_db(candidate.snr_estimated)
    fired = detect_jamming(candidate, ground_truth)
    verdict = evaluate_candidate(candidate, state, ControlMode.AWARE, ground_truth)
    print(f"{label} slots {block.start:3d}-{block.end - 1:3d}: "
          f"estimated {estimated:6.2f} dB, measured {measured:6.2f} dB, "
          f"gap {estimated - measured:5.2f} dB, detection={str(fired):5s}, verdict={verdict.value}")

print("\nOnly candidates overlapping a jammed range are refused; the gap on")
print("nearby spectrum is tolerated because the interference source (the")
print("empty jammed channel) is already priced into the QoT check.\n")

# Fill the spectrum below the first range so a real request is pushed
# into it, letting the whole detect-forbid-retry loop play out.
allocate([state.grids[("A", "B")], state.grids[("B", "A")]], SlotBlock(0, 48))
outcome = handle_request(
    Request(1, "A", "B", 40.0, 0.0, 600.0), state, ControlMode.AWARE, ground_truth
)
print(f"with slots 0-47 busy, a real 40 Gbps request lands at slots "
      f"{outcome.block.start}-{outcome.block.end - 1} ({outcome.modulation.name})")
print(f"and the control plane now forbids: {state.forbidden_ranges}")
