#!/usr/bin/env python3
"""Benchmark of the eonjam simulator, end to end and per module.

Usage, from the root of a checkout::

    python3 benchmarks/run.py --workload nsfnet_sweep --seed 1 --seconds 20 --trace 0

Each round runs ``eonjam.cli.main(["simulate", <config>])`` in this
process on a fresh output directory, checks the CSVs it wrote and hashes
them.  Rounds repeat until ``--seconds`` have passed, and at least twice,
so that two runs of the same code can be compared byte for byte.  Times
are means over the rounds.  The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (one operation is one simulated replication,
ranking pre-run and audit included) and the metrics, each with its unit.

``--trace 0`` reports the end-to-end metrics: ``wall_s``, ``cpu_s``
(this process plus its workers), ``setup_s`` (a fresh interpreter
importing ``eonjam``, loading the config and its topology) and
``peak_rss_mb``.  ``--trace 1`` runs three rounds in turn: untraced and
traced with one worker, and untraced on a two-worker process pool.  It
reports the per-module metrics of the traced rounds, the tracing
overhead and the pool's speed-up over one worker.

``--write-hashes`` records the SHA-256 of the CSV bodies of seeds 1-10
in ``reference_hashes.json``; ordinary runs compare against it on
standard error.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import bench_trace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".benchmark_out"
HASH_FILE = BENCH_DIR / "reference_hashes.json"
HASH_SEEDS = range(1, 11)
CSV_FILES = ("blocking.csv", "slots.csv")
SETUP_REPEATS = 9
POOL_WORKERS = 2

# Workload -> (config template, (mode, epsilon_db) of the audited replication).
WORKLOADS = {
    "nsfnet_sweep": ("nsfnet_sweep.yaml", ("aware", 1.0)),
    "metro_aware": ("metro_aware.yaml", ("aware", 2.5)),
}

SETUP_CHILD = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from eonjam import cli
config, violations = cli.load_config(sys.argv[2])
if violations:
    sys.exit("config error: " + "; ".join(violations))
config.load_topology()
print(repr(time.perf_counter() - start))
"""


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def import_program():
    """Import ``eonjam`` and the reference model from this checkout only."""
    if not (SRC / "eonjam" / "__init__.py").is_file():
        sys.exit(f"benchmark: no simulator sources at {SRC}")
    if not (ROOT / "tests" / "reference_model.py").is_file():
        sys.exit("benchmark: tests/reference_model.py is missing")
    sys.path[:0] = [str(SRC), str(ROOT / "tests")]
    import eonjam
    import eonjam.cli  # noqa: F401  (registers the submodule attribute)

    if Path(eonjam.__file__).resolve().parent != SRC / "eonjam":
        sys.exit(f"benchmark: imported eonjam from {eonjam.__file__}, not from {SRC}")
    return eonjam


class Workload:
    """A workload's generated config and the facts the checks need."""

    def __init__(self, name: str, seed: int, workdir: Path, workers: int | None = None):
        import yaml

        template, self.audit_point = WORKLOADS[name]
        data = yaml.safe_load((BENCH_DIR / "workloads" / template).read_text(encoding="utf-8"))
        data["base_seed"] = seed
        if data["topology"] == "nsfnet":
            self.topology_file = SRC / "eonjam" / "data" / "nsfnet.topo"
        else:
            self.topology_file = (BENCH_DIR / "workloads" / data["topology"]).resolve()
            data["topology"] = str(self.topology_file)
        if workers is not None:
            data["workers"] = workers
        self.csv_dir = workdir / "csv"
        data["output_dir"] = str(self.csv_dir)
        workdir.mkdir(parents=True, exist_ok=True)
        self.config_path = workdir / "config.yaml"
        self.config_path.write_text(yaml.safe_dump(data, sort_keys=False), encoding="utf-8")

        self.seed = seed
        self.traffic = data["traffic"]
        self.requests = self.traffic["requests_per_replication"]
        self.replications = self.traffic["replications"]
        self.selector = data.get("jammer", {}).get("target") in ("most_used", "least_used")
        sweep = data["epsilon_sweep"]
        steps = round((sweep["stop"] - sweep["start"]) / sweep["step"])
        powers = [sweep["start"] + i * sweep["step"] for i in range(steps + 1)]
        self.expected_rows = set()
        for mode in data["modes"]:
            for eps in [None] if mode == "no_jamming" else powers:
                for rep in range(self.replications):
                    self.expected_rows.add((mode, "na" if eps is None else f"{eps:.10g}", rep))

    @property
    def operations(self) -> int:
        """Replications one simulate call runs, ranking pre-run included."""
        return len(self.expected_rows) + (self.replications if self.selector else 0)


class Run:
    """Rounds, checks and failure accounting of one benchmark run."""

    def __init__(self, eonjam, workload: Workload):
        import bench_checks

        self.eonjam = eonjam
        self.checks = bench_checks
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.hashes: list[dict] = []
        self.blocking_rows: list[dict] = []
        nodes, lengths = bench_checks.read_topology(workload.topology_file)
        self.link_count = len(lengths) // 2
        unservable = bench_checks.statically_unservable(
            nodes, lengths, [float(b) for b in workload.traffic["bandwidth_choices_gbps"]]
        )
        self.static_bound = {}
        for rep in range(workload.replications):
            mix = bench_checks.request_mix(workload.seed + rep, nodes, workload.traffic)
            self.static_bound[rep] = sum(count for key, count in mix.items() if key in unservable)

    def simulate(self, workload: Workload) -> tuple[float, float]:
        """One cold ``simulate`` call, checked; returns (wall_s, cpu_s)."""
        shutil.rmtree(workload.csv_dir, ignore_errors=True)
        self_before = resource.getrusage(resource.RUSAGE_SELF)
        kids_before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.eonjam.cli.main(["simulate", str(workload.config_path)])
        except Exception:
            code = None
            log(traceback.format_exc())
        wall = time.perf_counter() - start
        self_after = resource.getrusage(resource.RUSAGE_SELF)
        kids_after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = sum(
            getattr(after, f) - getattr(before, f)
            for before, after in ((self_before, self_after), (kids_before, kids_after))
            for f in ("ru_utime", "ru_stime")
        )
        self.attempted += workload.operations
        if code != 0:
            self.fail(workload.operations, f"simulate returned {code}")
        else:
            self.check_outputs(workload)
        return wall, cpu

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        self.problems.append(message)
        log(f"FAILED ({count} operations): {message}")

    def check_outputs(self, workload: Workload) -> None:
        checks = self.checks
        try:
            blocking = checks.read_csv(workload.csv_dir / "blocking.csv")
            slots = checks.read_csv(workload.csv_dir / "slots.csv")
            keys = [checks.row_key(row) for row in blocking]
            ranking = checks.read_csv(workload.csv_dir / "link_ranking.csv") if workload.selector else None
        except (OSError, KeyError, ValueError) as exc:
            self.fail(workload.operations, f"unreadable CSV output: {exc}")
            return
        if len(keys) != len(set(keys)) or set(keys) != workload.expected_rows:
            self.fail(workload.operations, "blocking.csv rows differ from the workload's sweep")
            return
        if ranking is not None:
            problem = checks.check_ranking_rows(ranking, self.link_count)
            if problem:
                self.fail(workload.replications, problem)

        failures = {}
        for found in (
            checks.check_blocking_rows(blocking, workload.requests),
            checks.check_zero_db(blocking, slots),
            checks.check_static_bound(blocking, workload.requests, self.static_bound),
        ):
            for key, message in found.items():
                failures.setdefault(key, message)
        for (mode, eps), message in checks.check_slot_rows(slots).items():
            for key in keys:
                if key[:2] == (mode, eps):
                    failures.setdefault(key, message)
        for key, message in sorted(failures.items()):
            self.fail(1, f"{key}: {message}")

        self.hashes.append(
            {
                name: hashlib.sha256((workload.csv_dir / name).read_bytes()).hexdigest()
                for name in CSV_FILES
            }
        )
        self.blocking_rows = blocking

    def audit(self, workload: Workload) -> None:
        """Untimed: one replication re-checked against the reference model."""
        checks = self.checks
        eonjam = self.eonjam
        self.attempted += 1
        mode, eps = workload.audit_point
        row = next(
            (
                r
                for r in self.blocking_rows
                if r["mode"] == mode and r["epsilon_db"] != "na"
                and float(r["epsilon_db"]) == eps and r["replication"] == "0"
            ),
            None,
        )
        if row is None:
            self.fail(1, f"audit: no blocking.csv row for {mode} at {eps} dB")
            return
        config, _ = eonjam.cli.load_config(workload.config_path)
        jam = eonjam.JammerConfig(
            target=row["target"], jammed_ranges=config.jammer.jammed_ranges, epsilon_db=eps
        )
        epsilon_w = checks.ref.TX_POWER_W * (10.0 ** (eps / 10.0) - 1.0)
        audited = []

        def hook(state, kind, now):
            audited.append(
                checks.audit_state(state, row["target"], config.jammer.jammed_ranges, epsilon_w)
            )

        try:
            result = eonjam.run_replication(
                workload.seed,
                config.load_topology(),
                config.traffic,
                eonjam.ControlMode(mode),
                jam,
                detection_tolerance_db=config.detection_tolerance_db,
                audit_hook=hook,
                audit_every=max(1, workload.requests // 10),
            )
        except Exception as exc:
            log(traceback.format_exc())
            self.fail(1, f"audit: {type(exc).__name__}: {exc}")
            return
        problem = checks.check_conservation(result) or checks.check_blocked_match(result, row)
        if problem:
            self.fail(1, f"audit: {problem}")
        log(f"audit: {len(audited)} samples, {sum(audited)} circuits checked")

    def deterministic(self) -> bool:
        problem = self.checks.check_same_hashes(self.hashes)
        if problem:
            self.problems.append(problem)
            log(f"{problem}: {self.hashes}")
        return problem is None


def measure_setup(config_path: Path) -> float:
    """Median over fresh interpreters of import + config load + topology load."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CHILD, str(SRC), str(config_path)],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Largest resident set so far of this process and its reaped workers."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, kids_kb) / 1024.0


def layer_metrics(tracer) -> dict[str, tuple[float, str]]:
    """The per-module metrics of one traced round, with their units."""
    calls, total, self_s = tracer.calls, tracer.total_s, tracer.self_s
    requests = calls("control_plane.handle_request")
    candidates = calls("control_plane.evaluate_candidate")
    first_fits = calls("spectrum.first_fit")
    counts = tracer.counts
    return {
        "spectrum.first_fit.calls": (first_fits, "count"),
        "spectrum.first_fit.s": (total("spectrum.first_fit"), "s"),
        "spectrum.first_fit.hit_ratio": (counts["spectrum.first_fit.hits"] / first_fits, "ratio"),
        "control_plane.handle_request.calls": (requests, "count"),
        "control_plane.handle_request.self_s": (self_s("control_plane.handle_request"), "s"),
        "control_plane.evaluate_candidate.calls": (candidates, "count"),
        "control_plane.evaluate_candidate.s": (total("control_plane.evaluate_candidate"), "s"),
        "control_plane.candidates_per_request": (candidates / requests, "ratio"),
        "control_plane.candidate_yield": (counts["control_plane.accepts"] / candidates, "ratio"),
        "control_plane.xci_pairs_per_candidate": (
            counts["control_plane.xci_pairs"] / candidates,
            "ratio",
        ),
        "control_plane.establish.calls": (calls("control_plane.establish"), "count"),
        "control_plane.establish.s": (total("control_plane.establish"), "s"),
        "control_plane.depart.s": (total("control_plane.depart"), "s"),
        "spectrum.allocate.s": (total("spectrum.allocate"), "s"),
        "spectrum.release.s": (total("spectrum.release"), "s"),
        "spectrum.advance_time.calls": (calls("spectrum.advance_time"), "count"),
        "spectrum.advance_time.s": (total("spectrum.advance_time"), "s"),
        "control_plane.detect_jamming.calls": (calls("control_plane.detect_jamming"), "count"),
        "control_plane.forbid_range.calls": (calls("control_plane.forbid_range"), "count"),
        "phy.channel_for_block.calls": (calls("phy.channel_for_block"), "count"),
        "phy.qot_verdict.calls": (calls("phy.qot_verdict"), "count"),
        "sim.generate_request.s": (total("sim.generate_request"), "s"),
        "sim.run_replication.calls": (calls("sim.run_replication"), "count"),
        "sim.run_replication.self_s": (self_s("sim.run_replication"), "s"),
        "sim.compute_utilization_ranking.s": (total("sim.compute_utilization_ranking"), "s"),
        "topology.shortest_path.calls": (calls("topology.shortest_path"), "count"),
        "topology.shortest_path.s": (total("topology.shortest_path"), "s"),
        "jammer.s": (total("jammer.resolve_target", "jammer.ground_truth_channels"), "s"),
        "metrics.s": (
            total("metrics.blocking_probability", "metrics.slot_histogram", "metrics.utilization_ranking"),
            "s",
        ),
        "cli.self_s": (self_s("cli.main"), "s"),
    }


def compare_reference(name: str, seed: int, hashes: dict) -> None:
    if not HASH_FILE.is_file():
        return
    recorded = json.loads(HASH_FILE.read_text()).get(name, {}).get(str(seed))
    if recorded is None:
        log(f"reference hashes: none recorded for {name} seed {seed}")
    elif recorded == hashes:
        log(f"reference hashes: {name} seed {seed} matches")
    else:
        log(f"reference hashes: {name} seed {seed} DIFFERS from {HASH_FILE.name}")


def run_benchmark(args, eonjam) -> dict:
    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        workload = Workload(args.workload, args.seed, workdir / "serial", workers=1)
        traced_workload = Workload(args.workload, args.seed, workdir / "traced", workers=1)
        pool_workload = Workload(args.workload, args.seed, workdir / "pool", workers=POOL_WORKERS)
    else:
        workload = Workload(args.workload, args.seed, workdir)
    run = Run(eonjam, workload)

    walls, cpus, traced_walls, pool_walls, layers, traces = [], [], [], [], [], []
    deadline = time.perf_counter() + args.seconds
    while len(walls) < 2 or time.perf_counter() < deadline:
        wall, cpu = run.simulate(workload)
        walls.append(wall)
        cpus.append(cpu)
        if args.trace:
            tracer = bench_trace.instrument(eonjam)
            try:
                traced_walls.append(run.simulate(traced_workload)[0])
            finally:
                tracer.restore()
            layers.append(layer_metrics(tracer))
            traces.append(tracer.to_json())
            pool_walls.append(run.simulate(pool_workload)[0])
    log(f"{len(walls)} rounds, wall_s {[round(w, 3) for w in walls]}")

    # Times are means over the rounds: the run's simulate time divided by
    # the calls it completed.  On a shared machine whose speed drifts by
    # up to 2x, that is steadier from run to run than the median or the
    # fastest round (README.md, "What a run does").
    mean = statistics.fmean
    metrics: dict[str, tuple[float, str]] = {}
    if args.trace:
        for key, (value, unit) in layers[-1].items():
            metrics[key] = (mean(layer[key][0] for layer in layers) if unit == "s" else value, unit)
        metrics["sim.process_pool.speedup"] = (mean(walls) / mean(pool_walls), "ratio")
        metrics["trace.overhead_s"] = (mean(traced_walls) - mean(walls), "s")
    else:
        metrics["wall_s"] = (mean(walls), "s")
        metrics["cpu_s"] = (mean(cpus), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")

    run.audit(workload)
    if not args.trace:
        metrics["setup_s"] = (measure_setup(workload.config_path), "s")

    correct = run.deterministic() and run.failed < run.attempted
    if run.hashes:
        compare_reference(args.workload, args.seed, run.hashes[0])
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "walls_s": walls,
        "cpus_s": cpus,
        "traced_walls_s": traced_walls,
        "pool_walls_s": pool_walls,
        "csv_sha256": run.hashes[0] if run.hashes else None,
        "problems": run.problems,
        "trace_spans": traces[-1] if traces else None,
    }
    (workdir / "report.json").write_text(json.dumps(report, indent=1) + "\n")
    return {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def write_hashes(eonjam) -> None:
    """Record the CSV hashes of every workload on the reference seeds."""
    recorded: dict[str, dict] = {}
    for name in WORKLOADS:
        for seed in HASH_SEEDS:
            workload = Workload(name, seed, OUT / "hashes" / f"{name}-seed{seed}")
            run = Run(eonjam, workload)
            run.simulate(workload)
            if run.problems:
                sys.exit(f"{name} seed {seed}: {run.problems}")
            recorded.setdefault(name, {})[str(seed)] = run.hashes[0]
            log(f"{name} seed {seed}: {run.hashes[0]}")
    HASH_FILE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-hashes",
        action="store_true",
        help=f"record the CSV hashes of seeds {HASH_SEEDS.start}-{HASH_SEEDS.stop - 1} and exit",
    )
    args = parser.parse_args()
    if not args.write_hashes and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    eonjam = import_program()
    if args.write_hashes:
        write_hashes(eonjam)
        return
    print(json.dumps(run_benchmark(args, eonjam)))


if __name__ == "__main__":
    main()
