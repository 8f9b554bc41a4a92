"""Scenario files, validation, orchestration and CSV emission.

A scenario is a single YAML file::

    topology: nsfnet            # bundled topology, or a file path
    modes: [no_jamming, unaware, aware]
    jammer:
      target: most_used         # most_used | least_used | <link id>
      jammed_ranges: [[50, 10], [140, 10], [230, 10]]
    epsilon_sweep: {start: 0.0, stop: 5.0, step: 0.5}
    traffic:
      load_erlangs: 200
      mean_holding_s: 600
      bandwidth_choices_gbps: [40, 200, 400]
      requests_per_replication: 10000
      replications: 3
    base_seed: 1
    output_dir: results/example
    detection_tolerance_db: 0.1
    workers: 1

``eonjam simulate <config>`` writes ``blocking.csv`` (one row per mode,
epsilon and replication) and ``slots.csv`` (per-slot mean utilization),
plus ``slots_by_link.csv`` with ``--per-link-slots``.  ``eonjam
validate`` runs the static checks only; ``eonjam rank-links`` emits the
jammer-free link-utilization ranking.  Numeric CSV fields use 10
significant digits, and identical configs with the same base seed
reproduce byte-identical CSV bodies.  The no-jamming mode is constant in
epsilon, so its rows carry ``na`` in the epsilon and target columns.

Relative paths resolve differently: a relative ``topology`` file is read
from the directory of the config file, while a relative ``output_dir``
is created under the working directory of the ``eonjam`` process.  The
environment variable ``EONJAM_OUTPUT_DIR`` overrides ``output_dir``.

Each bound is checked by the type that holds the value (``sim.TrafficModel``,
``JammerConfig``, ``sim.epsilon_sweep_length``, ``Link`` and ``Topology``,
and :class:`ScenarioConfig` for the rest); this module converts the YAML
and reports each refusal as one ``<section>: <message>`` line.  A key the
format does not define, at the top level or inside ``traffic``,
``jammer`` or ``epsilon_sweep``, is a configuration error.

``argparse``, ``hashlib`` and ``json`` are imported by the functions
that use them, so loading a config, as ``validate`` does, loads neither
``hashlib`` nor ``json``.

Exit codes: 0 success, 1 configuration error, 2 runtime error.
"""

from __future__ import annotations

import math
import os
import sys
from pathlib import Path

import yaml

from . import metrics, sim
from ._value import Value
from .control_plane import (
    DEFAULT_DETECTION_TOLERANCE_DB,
    REASON_JAMMED,
    REASON_NO_SPECTRUM,
    REASON_QOT,
    ControlMode,
)
from .jammer import JammerConfig
from .spectrum import SlotBlock
from .topology import Topology, load_topology_file, nsfnet, nsfnet_text

__all__ = [
    "ScenarioConfig",
    "load_config",
    "validate",
    "run",
    "main",
]

_NA = "na"


class ScenarioConfig(Value):
    """A checked scenario: what to simulate and where to write results.

    Refuses its own fields' bounds and the rules that span fields with a
    ``ValueError`` whose message starts with the field it is about.  Its
    fields are the config file's top-level keys.  ``_topology``, not a
    config key and not compared, holds the loaded topology: the one the
    config check built, or the first load.
    """

    _fields = (
        "topology",
        "modes",
        "jammer",
        "epsilon_sweep",
        "traffic",
        "base_seed",
        "output_dir",
        "detection_tolerance_db",
        "workers",
    )

    def __init__(
        self,
        topology: str,
        modes: tuple[ControlMode, ...],
        jammer: JammerConfig | None,
        epsilon_sweep: tuple[float, float, float] | None,
        traffic: sim.TrafficModel,
        base_seed: int,
        output_dir: str,
        detection_tolerance_db: float = DEFAULT_DETECTION_TOLERANCE_DB,
        workers: int = 1,
    ) -> None:
        if not modes:
            raise ValueError("modes: at least one mode is required")
        repeated = [mode.value for mode in dict.fromkeys(modes) if modes.count(mode) > 1]
        if repeated:
            raise ValueError(f"modes: listed more than once: {', '.join(repeated)}")
        jams = any(mode is not ControlMode.NO_JAMMING for mode in modes)
        if jams and jammer is None:
            raise ValueError("jammer: required by modes other than no_jamming")
        if not jams and jammer is not None:
            raise ValueError("jammer: must be absent when the only mode is no_jamming")
        if epsilon_sweep is not None:
            try:
                sim.epsilon_sweep_length(*epsilon_sweep)
            except ValueError as exc:
                raise ValueError(f"epsilon_sweep: {exc}") from None
        elif jams:
            raise ValueError("epsilon_sweep: required by modes other than no_jamming")
        if base_seed < 0:
            raise ValueError("base_seed: must be >= 0")
        if not detection_tolerance_db >= 0:
            raise ValueError("detection_tolerance_db: must be >= 0")
        if workers < 1:
            raise ValueError("workers: must be >= 1")
        self._store(
            topology=topology,
            modes=modes,
            jammer=jammer,
            epsilon_sweep=epsilon_sweep,
            traffic=traffic,
            base_seed=base_seed,
            output_dir=output_dir,
            detection_tolerance_db=detection_tolerance_db,
            workers=workers,
            _topology=None,
        )

    def load_topology(self) -> Topology:
        """The scenario's topology, parsed and checked once per config."""
        if self._topology is None:
            object.__setattr__(self, "_topology", _load_topology(self.topology))
        return self._topology


def _load_topology(topology: str) -> Topology:
    if topology == "nsfnet":
        return nsfnet()
    return load_topology_file(topology)


def _finite(value) -> float:
    """A config number as a float; strings, booleans, NaN and infinities are refused."""
    if isinstance(value, (bool, str)):
        raise TypeError(f"expected a number, got {value!r}")
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"expected a finite number, got {value!r}")
    return number


def _integer(value) -> int:
    """A config integer; strings, booleans and fractional numbers are refused."""
    if isinstance(value, (bool, str)) or (isinstance(value, float) and not value.is_integer()):
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def _bandwidths(values) -> tuple[float, ...]:
    """A config list of bandwidths as floats; anything but a list is refused."""
    if not isinstance(values, list):
        raise TypeError(f"expected a list of numbers, got {values!r}")
    return tuple(_finite(value) for value in values)


def _jammed_range(index: int, pair) -> SlotBlock:
    """A config ``[start, width]`` pair as a block; anything else is refused."""
    try:
        if not isinstance(pair, list) or len(pair) != 2:
            raise TypeError("a range is a two-item list")
        return SlotBlock(_integer(pair[0]), _integer(pair[1]))
    except (TypeError, ValueError):
        raise ValueError(f"jammed_ranges[{index}]: expected [start, width]") from None


def _jammer_fields(section) -> dict:
    """A config ``jammer`` section as :class:`JammerConfig` keywords."""
    if not isinstance(section, dict):
        raise TypeError("expected a mapping with target and jammed_ranges")
    fields = {"target": section.get("target")}
    ranges = section.get("jammed_ranges")
    if ranges is not None:
        if not isinstance(ranges, list):
            raise TypeError("jammed_ranges: expected a list of [start, width]")
        fields["jammed_ranges"] = tuple(_jammed_range(i, pair) for i, pair in enumerate(ranges))
    return fields


def _sweep(section) -> tuple[float, float, float]:
    """A config ``epsilon_sweep`` section as ``(start, stop, step)``."""
    try:
        return tuple(_finite(section[key]) for key in _SWEEP_FIELDS)
    except (KeyError, TypeError, ValueError):
        raise ValueError("expected finite {start, stop, step}") from None


_TRAFFIC_FIELDS = {
    "load_erlangs": _finite,
    "mean_holding_s": _finite,
    "bandwidth_choices_gbps": _bandwidths,
    "requests_per_replication": _integer,
    "replications": _integer,
}


def _traffic_fields(section) -> dict:
    """A config ``traffic`` section as :class:`sim.TrafficModel` keywords."""
    if not isinstance(section, dict):
        raise TypeError("expected a mapping")
    fields = {}
    for key, convert in _TRAFFIC_FIELDS.items():
        if key in section:
            try:
                fields[key] = convert(section[key])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{key}: {exc}") from None
    return fields


#: The top-level config keys: the scenario's fields.
_CONFIG_FIELDS = ScenarioConfig._fields
_JAMMER_FIELDS = ("target", "jammed_ranges")
_SWEEP_FIELDS = ("start", "stop", "step")
_SECTION_KEYS = {"jammer": _JAMMER_FIELDS, "epsilon_sweep": _SWEEP_FIELDS, "traffic": _TRAFFIC_FIELDS}

#: Top-level scalars: converter, default, and what a bad value must be.
_SCALARS = {
    "base_seed": (_integer, 1, "an integer"),
    "detection_tolerance_db": (_finite, DEFAULT_DETECTION_TOLERANCE_DB, "a finite number"),
    "workers": (_integer, 1, "an integer"),
}


def _unknown_keys(section: str, data: dict, known) -> list[str]:
    """One violation per key of ``data`` that ``known`` does not hold."""
    return [f"{section}: unknown key {key!r}" for key in data if key not in known]


def _parse_config(data: dict, config_dir: Path) -> tuple[ScenarioConfig | None, list[str]]:
    """Convert a config's YAML values; build each section, then the scenario if all passed."""
    if not isinstance(data, dict):
        return None, ["config: top level must be a mapping"]
    violations: list[str] = []

    def section(name: str, build, raw):
        """``build(raw)``, or None once its refusal is a ``name:`` violation."""
        if isinstance(raw, dict):
            violations.extend(_unknown_keys(name, raw, _SECTION_KEYS[name]))
        try:
            return build(raw)
        except (OSError, TypeError, ValueError) as exc:
            violations.append(f"{name}: {exc}")
            return None

    topology = data.get("topology", "nsfnet")
    if not isinstance(topology, str) or not topology:
        violations.append("topology: must be 'nsfnet' or a file path")
    elif topology != "nsfnet":
        resolved = config_dir / topology
        if not resolved.is_file():
            violations.append(f"topology: file not found: {topology}")
        topology = str(resolved)
    loaded = None if violations else section("topology", _load_topology, topology)
    violations += _unknown_keys("config", data, _CONFIG_FIELDS)

    raw_modes = data.get("modes") or []
    if isinstance(raw_modes, str):
        raw_modes = [raw_modes]
    modes: list[ControlMode] = []
    if not isinstance(raw_modes, list):
        violations.append("modes: expected a mode name or a list of them")
        raw_modes = []
    for entry in raw_modes:
        try:
            modes.append(ControlMode(entry))
        except ValueError:
            violations.append(f"modes: unknown mode {entry!r}")

    jammer = sweep = None
    if data.get("jammer") is not None:
        jammer = section("jammer", lambda raw: JammerConfig(**_jammer_fields(raw)), data["jammer"])
    if jammer is not None and not jammer.uses_selector and loaded is not None:
        section("jammer", loaded.link_by_id, jammer.target)
    if data.get("epsilon_sweep") is not None:
        sweep = section("epsilon_sweep", _sweep, data["epsilon_sweep"])
    traffic = section("traffic", lambda raw: sim.TrafficModel(**_traffic_fields(raw)), data.get("traffic", {}))

    scalars = {}
    for key, (convert, default, kind) in _SCALARS.items():
        try:
            scalars[key] = convert(data.get(key, default))
        except (TypeError, ValueError):
            violations.append(f"{key}: must be {kind}")
    output_dir = data.get("output_dir", "results")
    if not isinstance(output_dir, str) or not output_dir:
        violations.append("output_dir: must be a non-empty string")

    if violations:
        return None, violations
    try:
        config = ScenarioConfig(
            topology=topology,
            modes=tuple(modes),
            jammer=jammer,
            epsilon_sweep=sweep,
            traffic=traffic,
            output_dir=output_dir,
            **scalars,
        )
    except ValueError as exc:
        return None, [str(exc)]
    object.__setattr__(config, "_topology", loaded)
    return config, []


class _RepeatedKeyError(yaml.YAMLError):
    """A mapping of the config lists one key twice."""


class _ConfigLoader(yaml.SafeLoader):
    """``yaml.SafeLoader`` refusing a key that one mapping lists twice, which it would drop."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if key_node.tag == "tag:yaml.org,2002:merge":
                continue
            key = self.construct_object(key_node, deep=deep)
            try:
                repeated = key in seen
            except TypeError:  # the base loader refuses an unhashable key
                continue
            if repeated:
                raise _RepeatedKeyError(f"repeated key {key!r} on line {key_node.start_mark.line + 1}")
            seen.add(key)
        return super().construct_mapping(node, deep=deep)


def load_config(path) -> tuple[ScenarioConfig | None, list[str]]:
    """Load and statically check a scenario file."""
    path = Path(path)
    try:
        data = yaml.load(path.read_text(encoding="utf-8"), Loader=_ConfigLoader)
    except FileNotFoundError:
        return None, [f"config: file not found: {path}"]
    except OSError as exc:
        return None, [f"config: cannot read {path}: {exc.strerror}"]
    except UnicodeDecodeError:
        return None, [f"config: not UTF-8 text: {path}"]
    except _RepeatedKeyError as exc:
        return None, [f"config: {exc}"]
    except yaml.YAMLError as exc:
        return None, [f"config: invalid YAML: {exc}"]
    except RecursionError:
        return None, [f"config: nested too deeply to read: {path}"]
    return _parse_config(data, path.parent)


def validate(path) -> list[str]:
    """Static checks only; returns the (possibly empty) violation list."""
    _, violations = load_config(path)
    return violations


def _fmt(value: float) -> str:
    return f"{value:.10g}"


def _output_dir(config: ScenarioConfig) -> Path:
    override = os.environ.get("EONJAM_OUTPUT_DIR")
    return Path(override) if override else Path(config.output_dir)


def _ranking_cache_key(config: ScenarioConfig) -> str:
    """Digest of everything the ranking depends on, topology contents included."""
    import hashlib
    import json

    if config.topology == "nsfnet":
        topology_bytes = nsfnet_text().encode("ascii")
    else:
        topology_bytes = Path(config.topology).read_bytes()
    traffic = config.traffic
    payload = json.dumps(
        {
            "topology": hashlib.sha256(topology_bytes).hexdigest(),
            "load": traffic.load_erlangs,
            "holding": traffic.mean_holding_s,
            "bandwidths": traffic.bandwidth_choices_gbps,
            "requests": traffic.requests_per_replication,
            "replications": traffic.replications,
            "base_seed": config.base_seed,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _cached_ranking(config: ScenarioConfig, outdir: Path):
    """The ranking in ``outdir`` if it is ``config``'s, else None.

    A cache counts only when its key matches ``config`` and it lists
    every link of the topology exactly once with a finite value, the
    values not increasing down the file as ``metrics.utilization_ranking``
    orders them; the caller recomputes and rewrites any other.
    """
    import json

    cache = outdir / "link_ranking.csv"
    meta = outdir / "link_ranking.meta.json"
    if not (cache.is_file() and meta.is_file()):
        return None
    try:
        if json.loads(meta.read_text())["key"] != _ranking_cache_key(config):
            return None
        ranking = []
        for line in cache.read_text().splitlines()[1:]:
            rank, link_id, value = line.split(",")
            ranking.append((link_id, float(value)))
    except (KeyError, TypeError, ValueError, json.JSONDecodeError):
        return None
    link_ids = sorted(link.id for link in config.load_topology().links)
    if sorted(link_id for link_id, _ in ranking) != link_ids:
        return None
    if not all(math.isfinite(value) for _, value in ranking):
        return None
    if any(above < below for (_, above), (_, below) in zip(ranking, ranking[1:])):
        return None
    return ranking


def _write_ranking(config: ScenarioConfig, outdir: Path, ranking) -> None:
    import json

    lines = ["rank,link_id,mean_utilization"]
    lines += [f"{i + 1},{link_id},{_fmt(value)}" for i, (link_id, value) in enumerate(ranking)]
    (outdir / "link_ranking.csv").write_text("\n".join(lines) + "\n")
    meta = json.dumps({"key": _ranking_cache_key(config)})
    (outdir / "link_ranking.meta.json").write_text(meta + "\n")


def _sorted_points(result: sim.ScenarioResult):
    order = {mode: i for i, mode in enumerate(ControlMode)}
    return sorted(
        result.points,
        key=lambda p: (order[p.mode], -1.0 if p.epsilon_db is None else p.epsilon_db),
    )


def _write_outputs(config: ScenarioConfig, result: sim.ScenarioResult, outdir: Path, per_link: bool):
    blocking_lines = [
        "mode,target,epsilon_db,replication,blocking_probability,"
        "blocked_no_spectrum,blocked_qot,blocked_jammed"
    ]
    slot_lines = ["mode,target,epsilon_db,slot_index,mean_utilization"]
    per_link_lines = ["mode,target,epsilon_db,link_id,slot_index,mean_utilization"]

    for point in _sorted_points(result):
        eps = _NA if point.epsilon_db is None else _fmt(point.epsilon_db)
        target = point.target_link_id if point.target_link_id else _NA
        for rep_index, rep in enumerate(point.results):
            blocking_lines.append(
                ",".join(
                    (
                        point.mode.value,
                        target,
                        eps,
                        str(rep_index),
                        _fmt(metrics.blocking_probability(rep)),
                        str(rep.blocked_by_reason.get(REASON_NO_SPECTRUM, 0)),
                        str(rep.blocked_by_reason.get(REASON_QOT, 0)),
                        str(rep.blocked_by_reason.get(REASON_JAMMED, 0)),
                    )
                )
            )
        histogram = point.mean_slot_utilization
        for index, value in enumerate(histogram):
            slot_lines.append(
                ",".join((point.mode.value, target, eps, str(index), _fmt(float(value))))
            )
        if per_link:
            by_link: dict[str, list] = {}
            for rep in point.results:
                for link_id, vec in rep.slot_utilization_by_link.items():
                    by_link.setdefault(link_id, []).append(vec)
            for link_id in sorted(by_link):
                mean_vec = sum(by_link[link_id]) / len(by_link[link_id])
                for index, value in enumerate(mean_vec):
                    per_link_lines.append(
                        ",".join(
                            (point.mode.value, target, eps, link_id, str(index), _fmt(float(value)))
                        )
                    )

    (outdir / "blocking.csv").write_text("\n".join(blocking_lines) + "\n")
    (outdir / "slots.csv").write_text("\n".join(slot_lines) + "\n")
    if per_link:
        (outdir / "slots_by_link.csv").write_text("\n".join(per_link_lines) + "\n")


def _print_summary(result: sim.ScenarioResult) -> None:
    if result.ranking:
        most = result.ranking[0]
        least = result.ranking[-1]
        print(f"link ranking: most used {most[0]} ({most[1]:.4f}), least used {least[0]} ({least[1]:.4f})")
    for point in _sorted_points(result):
        eps = _NA if point.epsilon_db is None else f"{point.epsilon_db:g} dB"
        target = point.target_link_id or _NA
        reasons = {REASON_NO_SPECTRUM: 0, REASON_QOT: 0, REASON_JAMMED: 0}
        for rep in point.results:
            for reason, count in rep.blocked_by_reason.items():
                reasons[reason] = reasons.get(reason, 0) + count
        print(
            f"{point.mode.value:10s} target={target:5s} eps={eps:8s} "
            f"blocking={point.mean_blocking:.6f} "
            f"(no-spectrum={reasons[REASON_NO_SPECTRUM]} qot={reasons[REASON_QOT]} "
            f"jammed={reasons[REASON_JAMMED]})"
        )


def _command(config_path, action) -> int:
    """Load a scenario file and run ``action(config)``; return the exit code.

    Each violation of the file prints one ``config error:`` line and
    gives 1; an ``OSError`` or ``ValueError`` from ``action`` prints one
    ``runtime error:`` line and gives 2.
    """
    config, violations = load_config(config_path)
    if violations:
        for violation in violations:
            print(f"config error: {violation}", file=sys.stderr)
        return 1
    try:
        action(config)
    except (OSError, ValueError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    return 0


def run(config_path, per_link_slots: bool = False) -> int:
    """Execute a scenario file and write its CSV artifacts."""

    def simulate(config: ScenarioConfig) -> None:
        outdir = _output_dir(config)
        outdir.mkdir(parents=True, exist_ok=True)
        ranking = None
        if config.jammer is not None and config.jammer.uses_selector:
            ranking = _cached_ranking(config, outdir)
        result = sim.run_scenario(config, ranking=ranking)
        if ranking is None and result.ranking is not None:
            _write_ranking(config, outdir, result.ranking)
        _write_outputs(config, result, outdir, per_link_slots)
        _print_summary(result)
        print(f"wrote {outdir / 'blocking.csv'} and {outdir / 'slots.csv'}")

    return _command(config_path, simulate)


def _rank_links(config: ScenarioConfig) -> None:
    outdir = _output_dir(config)
    outdir.mkdir(parents=True, exist_ok=True)
    ranking = _cached_ranking(config, outdir)
    if ranking is None:
        ranking = sim.compute_utilization_ranking(
            config.load_topology(), config.traffic, config.base_seed, workers=config.workers
        )
        _write_ranking(config, outdir, ranking)
    for index, (link_id, value) in enumerate(ranking, start=1):
        print(f"{index:2d}. {link_id}  {value:.6f}")
    print(f"wrote {outdir / 'link_ranking.csv'}")


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="eonjam",
        description="Elastic optical network simulator with jamming-aware control planes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a scenario and write CSV results")
    p_sim.add_argument("config", help="scenario YAML file")
    p_sim.add_argument(
        "--per-link-slots",
        action="store_true",
        help="also write slots_by_link.csv with the per-link breakdown",
    )

    p_val = sub.add_parser("validate", help="check a scenario file without running it")
    p_val.add_argument("config", help="scenario YAML file")

    p_rank = sub.add_parser("rank-links", help="write the jammer-free link utilization ranking")
    p_rank.add_argument("config", help="scenario YAML file")

    args = parser.parse_args(argv)
    if args.command == "simulate":
        return run(args.config, per_link_slots=args.per_link_slots)
    if args.command == "validate":
        return _command(args.config, lambda config: print("ok"))
    return _command(args.config, _rank_links)


if __name__ == "__main__":
    sys.exit(main())
