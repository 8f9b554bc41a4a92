"""The benchmark's tracer finds every name it wraps, and puts each one back.

``benchmarks/bench_trace.py`` wraps package functions and methods by
name; a renamed or deleted one would otherwise fail only in a traced
benchmark run.
"""

import sys
from pathlib import Path

import eonjam
import eonjam.cli
from eonjam import ControlMode, TrafficModel, nsfnet, sim

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
import bench_trace  # noqa: E402

# Spans and counters that every replication that establishes and
# releases circuits must reach through the wrapped names.
REPLICATION_SPANS = [
    "sim.run_replication",
    "control_plane.handle_request",
    "control_plane.evaluate_candidate",
    "spectrum.first_fit",
    "spectrum.allocate",
    "spectrum.release",
    "control_plane.establish",
    "control_plane.depart",
    "spectrum.advance_time",
    "topology.shortest_path",
    "phy.channel_for_block",
    "phy.qot_verdict",
]


def test_tracer_installs_every_span_and_counter_and_restores_them():
    tracer = bench_trace.instrument(eonjam)
    try:
        installed = list(tracer._saved)
        for owner, attr, original in installed:
            assert getattr(owner, attr) is not original, f"{owner.__name__}.{attr} not wrapped"
        traffic = TrafficModel(requests_per_replication=300, replications=1)
        sim.run_replication(1, nsfnet(), traffic, ControlMode.NO_JAMMING)
    finally:
        tracer.restore()
    for owner, attr, original in installed:
        assert getattr(owner, attr) is original
    for name in REPLICATION_SPANS:
        assert tracer.calls(name) > 0, f"{name} recorded no call"
