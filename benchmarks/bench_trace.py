"""In-memory span tracing of the simulator's module boundaries.

The tracer replaces module and class attributes of ``eonjam`` with
wrappers until :meth:`Tracer.restore`, so the simulator's sources stay
untouched.  Each wrapper is installed under the name the *calling*
module looks up: ``control_plane`` imports ``first_fit`` by name, so the
span goes on ``eonjam.control_plane.first_fit``, not only on
``eonjam.spectrum.first_fit``.

A span records calls, total time and the time its child spans cover;
self time is the difference.  Aggregates are kept per span name and per
(parent, name) edge, in memory, and written out once at the end.
Calls too fine to time cheaply (``phy.qot_verdict`` runs once per
neighbour) are only counted.
"""

from __future__ import annotations

import time


class Tracer:
    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, child_s]
        self.edges: dict[tuple, list] = {}  # (parent, name) -> [calls, total_s]
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []  # open spans: [name, child_s]
        self._saved: list[tuple] = []

    def span(self, owner, attr: str, name: str, after=None) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        ``after(args, result)`` runs once the call returns; its own time
        is charged to no span, so it does not inflate the caller's self
        time.
        """
        original = getattr(owner, attr)
        record = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack, edges, clock = self._stack, self.edges, time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return_value = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                record[0] += 1
                record[1] += elapsed
                record[2] += frame[1]
                parent = stack[-1] if stack else None
                edge = edges.setdefault((parent[0] if parent else None, name), [0, 0.0])
                edge[0] += 1
                edge[1] += elapsed
            if after is not None:
                hook_start = clock()
                after(args, return_value)
                elapsed += clock() - hook_start
            if parent is not None:
                parent[1] += elapsed
            return return_value

        self._install(owner, attr, original, traced)

    def count(self, owner, attr: str, name: str) -> None:
        """Count the calls of ``owner.attr`` without timing them."""
        original = getattr(owner, attr)
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        self._install(owner, attr, original, counted)

    def add(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _install(self, owner, attr, original, wrapper) -> None:
        wrapper.__name__ = getattr(original, "__name__", attr)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def calls(self, name: str) -> int:
        return self.spans[name][0] if name in self.spans else self.counts.get(name, 0)

    def total_s(self, *names: str) -> float:
        return sum(self.spans[n][1] for n in names)

    def self_s(self, name: str) -> float:
        calls, total, child = self.spans[name]
        return total - child

    def to_json(self) -> dict:
        return {
            "spans": {
                name: {"calls": c, "total_s": t, "self_s": t - ch}
                for name, (c, t, ch) in sorted(self.spans.items())
            },
            "edges": [
                {"parent": parent, "span": name, "calls": c, "total_s": t}
                for (parent, name), (c, t) in sorted(self.edges.items(), key=lambda kv: str(kv[0]))
            ],
            "counts": dict(sorted(self.counts.items())),
        }


def instrument(eonjam) -> Tracer:
    """Install the benchmark's spans and counters on the ``eonjam`` modules."""
    cli, sim, cp, phy, metrics = eonjam.cli, eonjam.sim, eonjam.control_plane, eonjam.phy, eonjam.metrics
    tracer = Tracer()
    hops_of: dict[tuple[str, str], tuple] = {}

    def first_fit_done(args, block):
        if block is not None:
            tracer.add("spectrum.first_fit.hits")

    def candidate_done(args, verdict):
        candidate, state = args[0], args[1]
        route = candidate.route
        key = (route.source, route.destination)
        hops = hops_of.get(key)
        if hops is None:
            hops = hops_of[key] = route.directed_hops
        actives = state.grid_actives
        tracer.add("control_plane.xci_pairs", sum(len(actives[hop]) for hop in hops))
        if verdict is cp.Verdict.ACCEPT:
            tracer.add("control_plane.accepts")

    tracer.span(cli, "main", "cli.main")
    tracer.span(cli, "nsfnet", "topology.load")
    tracer.span(cli, "load_topology_file", "topology.load")
    tracer.span(sim, "run_scenario", "sim.run_scenario")
    tracer.span(sim, "compute_utilization_ranking", "sim.compute_utilization_ranking")
    tracer.span(sim, "run_replication", "sim.run_replication")
    tracer.span(sim, "generate_request", "sim.generate_request")
    tracer.span(sim, "resolve_target", "jammer.resolve_target")
    tracer.span(sim, "ground_truth_channels", "jammer.ground_truth_channels")
    tracer.span(sim, "handle_request", "control_plane.handle_request")
    tracer.span(cp, "evaluate_candidate", "control_plane.evaluate_candidate", after=candidate_done)
    tracer.count(cp, "detect_jamming", "control_plane.detect_jamming")
    tracer.span(cp, "first_fit", "spectrum.first_fit", after=first_fit_done)
    tracer.span(cp, "allocate", "spectrum.allocate")
    tracer.span(cp, "release", "spectrum.release")
    tracer.span(cp.NetworkState, "establish", "control_plane.establish")
    tracer.span(cp.NetworkState, "depart", "control_plane.depart")
    tracer.count(cp.NetworkState, "forbid_range", "control_plane.forbid_range")
    tracer.span(eonjam.spectrum.SlotGrid, "advance_time", "spectrum.advance_time")
    tracer.span(eonjam.topology.Topology, "shortest_path", "topology.shortest_path")
    tracer.count(phy, "channel_for_block", "phy.channel_for_block")
    tracer.count(phy, "qot_verdict", "phy.qot_verdict")
    for function in ("blocking_probability", "slot_histogram", "utilization_ranking"):
        tracer.span(metrics, function, f"metrics.{function}")
    return tracer
