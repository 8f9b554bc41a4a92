import concurrent.futures
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eonjam import cli, sim
from eonjam.cli import ScenarioConfig, load_config, main, run, validate
from eonjam.control_plane import ControlMode
from eonjam.jammer import JammerConfig
from eonjam.sim import MAX_REQUESTS_PER_REPLICATION, MAX_SWEEP_POINTS, TrafficModel
from eonjam.topology import Link, Topology, load_topology

CONFIG_DIR = Path(__file__).parent.parent / "configs"

TINY = {
    "topology": "nsfnet",
    "modes": ["no_jamming", "unaware"],
    "jammer": {"target": "8-9"},
    "epsilon_sweep": {"start": 0.0, "stop": 1.0, "step": 0.5},
    "traffic": {"requests_per_replication": 250, "replications": 1},
    "base_seed": 3,
    "output_dir": "out",
}


def write_config(tmp_path, data, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return path


def test_shipped_configs_validate():
    configs = sorted(CONFIG_DIR.glob("*.yaml"))
    assert configs, "no shipped configs found"
    for path in configs:
        assert validate(path) == [], path.name


def test_validate_names_step_violation(tmp_path):
    bad = dict(TINY, epsilon_sweep={"start": 0.0, "stop": 1.0, "step": 0.0})
    assert validate(write_config(tmp_path, bad)) == ["epsilon_sweep: step: must be positive"]


@pytest.mark.parametrize(
    "ranges, message",
    [
        ([[315, 10]], "jammer: jammed range SlotBlock(start=315, width=10) exceeds the 320-slot grid"),
        ([], "jammer: at least one jammed range is required"),
        (["59", "2345"], "jammer: jammed_ranges[0]: expected [start, width]"),
        ([[50, 10], ["140", 10]], "jammer: jammed_ranges[1]: expected [start, width]"),
        ([[50, 10, 99]], "jammer: jammed_ranges[0]: expected [start, width]"),
        ([[50]], "jammer: jammed_ranges[0]: expected [start, width]"),
    ],
    ids=["exceeds grid", "empty", "strings", "string-start", "three-items", "one-item"],
)
def test_validate_names_range_violation(tmp_path, ranges, message):
    # The one violation is the range's, not a missing jammer.
    bad = dict(TINY, jammer={"target": "8-9", "jammed_ranges": ranges})
    assert validate(write_config(tmp_path, bad)) == [message]


def test_validate_rejects_unknown_mode(tmp_path):
    violations = validate(write_config(tmp_path, dict(TINY, modes=["bogus"])))
    assert any("unknown mode" in v for v in violations)


def test_validate_requires_jammer_for_attack_modes(tmp_path):
    bad = dict(TINY)
    bad.pop("jammer")
    violations = validate(write_config(tmp_path, bad))
    assert any("jammer" in v for v in violations)


def test_validate_rejects_jammer_without_attack_mode(tmp_path):
    bad = dict(TINY, modes=["no_jamming"])
    violations = validate(write_config(tmp_path, bad))
    assert any("must be absent" in v for v in violations)


@pytest.mark.parametrize(
    "section",
    [
        {"modes": 5},
        {"jammer": [1, 2]},
        {"traffic": 5},
        {"jammer": {"target": "1-8", "jammed_ranges": 7}},
    ],
)
def test_validate_malformed_section_exit_code(tmp_path, capsys, section):
    config_path = write_config(tmp_path, dict(TINY, **section))
    assert main(["validate", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert "config error:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_negative_base_seed_is_a_config_error(tmp_path, capsys, command):
    config_path = write_config(tmp_path, dict(TINY, base_seed=-1, output_dir=str(tmp_path / "out")))
    assert main([command, str(config_path)]) == 1
    err = capsys.readouterr().err
    assert "config error: base_seed: must be >= 0" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_sweep_above_the_point_limit_is_refused_before_anything_runs(tmp_path, command):
    # 0 to 5 dB in 1e-9 dB steps would be 5e9 powers: counted, not built.
    config_path = write_config(
        tmp_path,
        dict(TINY, epsilon_sweep={"start": 0, "stop": 5, "step": 1e-9}, output_dir=str(tmp_path / "out")),
    )
    started = AssertionError("the refused sweep started work")
    with mock.patch.object(sim, "epsilon_sweep_values", side_effect=started), mock.patch.object(
        sim, "_replicate", side_effect=started
    ), mock.patch.object(concurrent.futures, "ProcessPoolExecutor", side_effect=started):
        code, out, err = _cli(command, str(config_path))
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        f"config error: epsilon_sweep: 5000000001 powers, more than the {MAX_SWEEP_POINTS} allowed"
    ]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_request_count_above_the_limit_is_refused_before_anything_runs(tmp_path, command):
    # The stream of a refused count is never drawn: drawing it is what
    # the bound prevents.
    requests = MAX_REQUESTS_PER_REPLICATION + 1
    config_path = write_config(
        tmp_path,
        dict(
            TINY,
            traffic={"requests_per_replication": requests, "replications": 1},
            output_dir=str(tmp_path / "out"),
        ),
    )
    started = AssertionError("the refused request count started work")
    with mock.patch.object(sim, "_request_stream", side_effect=started), mock.patch.object(
        sim, "_replicate", side_effect=started
    ), mock.patch.object(concurrent.futures, "ProcessPoolExecutor", side_effect=started):
        code, out, err = _cli(command, str(config_path))
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        f"config error: traffic: requests_per_replication: {requests} requests, "
        f"more than the {MAX_REQUESTS_PER_REPLICATION} allowed"
    ]
    assert not (tmp_path / "out").exists()


def test_request_count_at_the_limit_validates(tmp_path):
    at_limit = dict(TINY, traffic={"requests_per_replication": MAX_REQUESTS_PER_REPLICATION})
    with mock.patch.object(sim, "_request_stream", side_effect=AssertionError("validate drew a stream")):
        assert validate(write_config(tmp_path, at_limit)) == []


def test_sweep_at_the_point_limit_validates(tmp_path):
    step = 0.001
    last = (MAX_SWEEP_POINTS - 1) * step
    at_limit = write_config(tmp_path, dict(TINY, epsilon_sweep={"start": 0, "stop": last, "step": step}))
    assert validate(at_limit) == []
    over = write_config(tmp_path, dict(TINY, epsilon_sweep={"start": 0, "stop": last + step, "step": step}))
    assert validate(over) == [
        f"epsilon_sweep: {MAX_SWEEP_POINTS + 1} powers, more than the {MAX_SWEEP_POINTS} allowed"
    ]


@pytest.mark.parametrize(
    "override, message",
    [
        ({"detection_tolerance_db": float("nan")}, "detection_tolerance_db: must be a finite number"),
        ({"traffic": {"load_erlangs": float("inf")}}, "traffic: load_erlangs: expected a finite number"),
        ({"epsilon_sweep": {"start": float("nan"), "stop": 1.0, "step": 0.5}}, "epsilon_sweep: expected finite"),
        ({"epsilon_sweep": {"start": 0.0, "stop": float("nan"), "step": 0.5}}, "epsilon_sweep: expected finite"),
        ({"epsilon_sweep": {"start": -1.0, "stop": 1.0, "step": 0.5}}, "epsilon_sweep: start: must be >= 0\n"),
        ({"epsilon_sweep": {"start": 0.0, "stop": -1.0, "step": 0.5}}, "epsilon_sweep: stop: must be >= start\n"),
        ({"base_seed": True}, "base_seed: must be an integer"),
        ({"traffic": {"requests_per_replication": 10.7}}, "traffic: requests_per_replication: expected an integer"),
        ({"traffic": {"bandwidth_choices_gbps": "48"}},
         "traffic: bandwidth_choices_gbps: expected a list of numbers, got '48'"),
        ({"traffic": {"bandwidth_choices_gbps": [40, "200"]}},
         "traffic: bandwidth_choices_gbps: expected a number, got '200'"),
        ({"traffic": {"load_erlangs": "200"}}, "traffic: load_erlangs: expected a number, got '200'"),
        ({"traffic": {"requests_per_replication": "250"}},
         "traffic: requests_per_replication: expected an integer, got '250'"),
        ({"base_seed": "7"}, "base_seed: must be an integer"),
        ({"workers": "1"}, "workers: must be an integer"),
        ({"detection_tolerance_db": "0.1"}, "detection_tolerance_db: must be a finite number"),
        ({"epsilon_sweep": {"start": "0", "stop": 1.0, "step": 0.5}}, "epsilon_sweep: expected finite"),
    ],
    ids=["nan-tolerance", "inf-load", "nan-start", "nan-stop", "negative-start", "negative-stop",
         "bool-seed", "fractional-requests", "string-bandwidths", "string-bandwidth", "string-load",
         "string-requests", "string-seed", "string-workers", "string-tolerance", "string-start"],
)
def test_non_finite_or_fractional_number_is_a_config_error(tmp_path, capsys, override, message):
    config_path = write_config(tmp_path, dict(TINY, **override))
    assert main(["validate", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_repeated_mode_is_a_config_error(tmp_path, capsys, command):
    modes = ["no_jamming", "unaware", "no_jamming", "unaware", "unaware"]
    config = dict(TINY, modes=modes, output_dir=str(tmp_path / "out"))
    assert main([command, str(write_config(tmp_path, config))]) == 1
    captured = capsys.readouterr()
    assert captured.err == "config error: modes: listed more than once: no_jamming, unaware\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_run_scenario_refuses_a_repeated_mode(tmp_path):
    # The scenario refuses the repeated mode when built, so no run starts.
    config, violations = load_config(write_config(tmp_path, TINY))
    assert not violations
    fields = {name: getattr(config, name) for name in cli._CONFIG_FIELDS}
    started = AssertionError("a run started")
    with mock.patch.object(sim, "_replicate", side_effect=started), mock.patch.object(
        concurrent.futures, "ProcessPoolExecutor", side_effect=started
    ), pytest.raises(ValueError, match="^modes: listed more than once: unaware$"):
        ScenarioConfig(**dict(fields, modes=(ControlMode.UNAWARE, ControlMode.UNAWARE)))


def _tiny_scenario(**changes):
    """The scenario ``TINY`` describes, built in the library, with ``changes``."""
    fields = dict(
        topology="nsfnet",
        modes=(ControlMode.NO_JAMMING, ControlMode.UNAWARE),
        jammer=JammerConfig(target="8-9"),
        epsilon_sweep=(0.0, 1.0, 0.5),
        traffic=TrafficModel(requests_per_replication=250, replications=1),
        base_seed=3,
        output_dir="out",
    )
    return ScenarioConfig(**dict(fields, **changes))


_TOO_MANY_REQUESTS = MAX_REQUESTS_PER_REPLICATION + 1


@pytest.mark.parametrize(
    "build, override, prefix",
    [
        (lambda: _tiny_scenario(modes=()), {"modes": []}, ""),
        (
            lambda: _tiny_scenario(modes=(ControlMode.AWARE,), epsilon_sweep=None),
            {"modes": ["aware"], "epsilon_sweep": None},
            "",
        ),
        (lambda: _tiny_scenario(modes=(ControlMode.NO_JAMMING,)), {"modes": ["no_jamming"]}, ""),
        (lambda: _tiny_scenario(base_seed=-1), {"base_seed": -1}, ""),
        (lambda: _tiny_scenario(detection_tolerance_db=-5.0), {"detection_tolerance_db": -5}, ""),
        (lambda: _tiny_scenario(workers=0), {"workers": 0}, ""),
        (
            lambda: _tiny_scenario(epsilon_sweep=(-1.0, 1.0, 0.5)),
            {"epsilon_sweep": {"start": -1, "stop": 1, "step": 0.5}},
            "",
        ),
        (
            lambda: _tiny_scenario(epsilon_sweep=(0.0, 5.0, 1e-9)),
            {"epsilon_sweep": {"start": 0, "stop": 5, "step": 1e-9}},
            "",
        ),
        (
            lambda: TrafficModel(requests_per_replication=0),
            {"traffic": {"requests_per_replication": 0, "replications": 1}},
            "traffic: ",
        ),
        (
            lambda: TrafficModel(requests_per_replication=_TOO_MANY_REQUESTS),
            {"traffic": {"requests_per_replication": _TOO_MANY_REQUESTS, "replications": 1}},
            "traffic: ",
        ),
        (lambda: JammerConfig(target=""), {"jammer": {"target": ""}}, "jammer: "),
        (
            lambda: Topology(nodes=("a,b", "c"), links=(Link("a,b-c", "a,b", "c", 100.0),)),
            {"topology": "comma.topo"},
            "topology: ",
        ),
        (lambda: Link("A-B", "A", "B", float("inf")), {"topology": "inf.topo"}, "topology: line 2: "),
    ],
    ids=[
        "no-modes", "aware-without-sweep", "no-jamming-with-jammer", "negative-seed",
        "negative-tolerance", "no-workers", "negative-sweep-start", "sweep-above-the-point-limit",
        "no-requests", "requests-above-the-limit", "empty-target", "comma-in-a-node-name",
        "infinite-link-length",
    ],
)
def test_the_library_refuses_what_validate_refuses(tmp_path, build, override, prefix):
    # Each value is refused by the type that holds it, and validate prints
    # that refusal after its section's prefix.
    (tmp_path / "comma.topo").write_text("nodes: a,b c\nlink: a,b c 100\n")
    (tmp_path / "inf.topo").write_text("nodes: A B\nlink: A B inf\n")
    with pytest.raises(ValueError) as refused:
        build()
    assert validate(write_config(tmp_path, dict(TINY, **override))) == [prefix + str(refused.value)]


@pytest.mark.parametrize("command", ["validate", "simulate", "rank-links"])
@pytest.mark.parametrize("unreadable", ["directory", "not-utf-8"])
def test_an_unreadable_config_is_a_config_error(tmp_path, monkeypatch, command, unreadable):
    monkeypatch.setenv("EONJAM_OUTPUT_DIR", str(tmp_path / "out"))
    config_path = tmp_path / "scenario.yaml"
    if unreadable == "directory":
        config_path.mkdir()
        message = f"config: cannot read {config_path}: Is a directory"
    else:
        config_path.write_bytes(yaml.safe_dump(TINY).encode() + b"# \xff\n")
        message = f"config: not UTF-8 text: {config_path}"
    assert _cli(command, str(config_path)) == (1, "", f"config error: {message}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "simulate", "rank-links"])
def test_a_deeply_nested_config_is_a_config_error(tmp_path, monkeypatch, command):
    monkeypatch.setenv("EONJAM_OUTPUT_DIR", str(tmp_path / "out"))
    config_path = tmp_path / "scenario.yaml"
    config_path.write_text("x: " + "[" * 1000 + "\n")
    message = f"config error: config: nested too deeply to read: {config_path}\n"
    assert _cli(command, str(config_path)) == (1, "", message)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "prefix, suffix",
    [("x: ", ""), ("modes: ", ""), ("traffic: {bandwidth_choices_gbps: ", "}"), ("jammer: {jammed_ranges: ", "}")],
)
def test_nesting_near_the_parser_limit_never_escapes(tmp_path, prefix, suffix):
    # Around the depth at which the YAML parser gives up, a config is
    # read and refused, or refused as too deep; nothing else escapes.
    config_path = tmp_path / "scenario.yaml"
    too_deep = set()
    for depth in range(400, 700, 40):
        config_path.write_text(prefix + "[" * depth + "]" * depth + suffix + "\n")
        code, out, err = _cli("validate", str(config_path))
        assert (code, out) == (1, "")
        assert all(line.startswith("config error: ") for line in err.splitlines())
        too_deep.add("nested too deeply" in err)
    assert too_deep == {False, True}


@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_a_top_level_key_repeated_is_a_config_error(tmp_path, monkeypatch, command):
    monkeypatch.setenv("EONJAM_OUTPUT_DIR", str(tmp_path / "out"))
    text = yaml.safe_dump(TINY)
    config_path = tmp_path / "scenario.yaml"
    config_path.write_text(text + "base_seed: 4\n")
    line = len(text.splitlines()) + 1
    assert _cli(command, str(config_path)) == (1, "", f"config error: config: repeated key 'base_seed' on line {line}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_a_section_key_repeated_is_a_config_error(tmp_path, monkeypatch, command):
    monkeypatch.setenv("EONJAM_OUTPUT_DIR", str(tmp_path / "out"))
    config_path = tmp_path / "scenario.yaml"
    config_path.write_text(
        "modes: [no_jamming]\n"
        "traffic:\n"
        "  requests_per_replication: 250\n"
        "  replications: 1\n"
        "  replications: 2\n"
    )
    assert _cli(command, str(config_path)) == (1, "", "config error: config: repeated key 'replications' on line 5\n")
    assert not (tmp_path / "out").exists()


def test_a_merged_key_overridden_is_not_repeated(tmp_path):
    config_path = tmp_path / "scenario.yaml"
    config_path.write_text(yaml.safe_dump(dict(TINY, traffic={"replications": 2})).replace(
        "traffic:\n", "traffic:\n  <<: {requests_per_replication: 250, replications: 1}\n"
    ))
    config, violations = load_config(config_path)
    assert violations == []
    assert (config.traffic.requests_per_replication, config.traffic.replications) == (250, 2)


@pytest.mark.parametrize(
    "command, link, message",
    [
        pytest.param(command, "A C 100", "link A-C references an undeclared node", id=command)
        for command in ("validate", "simulate")
    ]
    + [
        pytest.param(
            command, f"A B {length}", f"line 2: non-positive or non-finite length {length}",
            id=f"{command}-{length}",
        )
        for command in ("validate", "simulate", "rank-links")
        for length in ("inf", "nan")
    ],
)
def test_broken_topology_is_a_config_error_for_selector_targets(
    tmp_path, capsys, command, link, message
):
    (tmp_path / "broken.topo").write_text(f"nodes: A B\nlink: {link}\n")
    config = dict(TINY, topology="broken.topo", output_dir=str(tmp_path / "out"))
    config["jammer"] = {"target": "most_used"}
    assert main([command, str(write_config(tmp_path, config))]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"config error: topology: {message}\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "simulate"])
@pytest.mark.parametrize(
    "sweep",
    [
        {"start": 1700, "stop": 1700, "step": 1},
        {"start": 3100, "stop": 3100, "step": 1},
        # The stop is at the bound, but the last power, 100.0000000002, is above it.
        {"start": 0, "stop": 100, "step": 33.3333333334},
    ],
    ids=["1700-dB", "3100-dB", "rounded-past-the-bound"],
)
def test_a_jamming_power_above_the_bound_is_a_config_error(tmp_path, capsys, command, sweep):
    config = dict(TINY, modes=["unaware", "aware"], epsilon_sweep=sweep, output_dir=str(tmp_path / "out"))
    assert main([command, str(write_config(tmp_path, config))]) == 1
    captured = capsys.readouterr()
    assert captured.err == "config error: epsilon_sweep: a power above the 100.0 dB limit\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "simulate", "rank-links"])
def test_duplicate_link_id_is_a_config_error(tmp_path, capsys, command):
    # Link ids are min-max of the endpoint names: a-b/c and a/b-c are both a-b-c.
    (tmp_path / "dup.topo").write_text("nodes: a-b c a b-c\nlink: a-b c 100\nlink: a b-c 100\nlink: c a 100\n")
    config = dict(TINY, topology="dup.topo", output_dir=str(tmp_path / "out"))
    config["jammer"] = {"target": "most_used"}
    assert main([command, str(write_config(tmp_path, config))]) == 1
    captured = capsys.readouterr()
    assert captured.err == "config error: topology: duplicate link id 'a-b-c'\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "simulate", "rank-links"])
def test_a_comma_in_a_node_name_is_a_config_error(tmp_path, capsys, command):
    # Node names make up the link ids in the CSV outputs, where a comma
    # would split one field in two.
    (tmp_path / "comma.topo").write_text("nodes: a,b c d\nlink: a,b c 100\nlink: c d 100\n")
    config = dict(TINY, topology="comma.topo", output_dir=str(tmp_path / "out"))
    config["jammer"] = {"target": "most_used"}
    assert main([command, str(write_config(tmp_path, config))]) == 1
    captured = capsys.readouterr()
    assert captured.err == "config error: topology: node name 'a,b' contains a comma\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_an_arrival_clock_that_would_overflow_is_a_config_error(tmp_path, capsys, command):
    # 20 requests a mean 6e307 s apart: the last arrival time would be inf.
    traffic = {"requests_per_replication": 20, "replications": 1, "load_erlangs": 1e-305}
    config = dict(TINY, traffic=traffic, output_dir=str(tmp_path / "out"))
    assert main([command, str(write_config(tmp_path, config))]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "config error: traffic: mean arrival horizon inf s is above the 1e+300 s allowed\n"
    )
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "simulate", "rank-links"])
def test_a_one_node_topology_is_a_config_error(tmp_path, capsys, command):
    # A request needs two distinct endpoints, so one node can serve none.
    (tmp_path / "one.topo").write_text("nodes: A\n")
    config = dict(TINY, topology="one.topo", output_dir=str(tmp_path / "out"))
    config["jammer"] = {"target": "most_used"}
    assert main([command, str(write_config(tmp_path, config))]) == 1
    captured = capsys.readouterr()
    assert captured.err == "config error: topology: at least two nodes are required\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_cold_simulate_ranks_from_its_own_no_jamming_runs(tmp_path, monkeypatch):
    calls = []
    replicate = sim._replicate

    def counted(*args, **kwargs):
        calls.append(args[3])
        return replicate(*args, **kwargs)

    monkeypatch.setattr(sim, "_replicate", counted)
    config = dict(TINY, output_dir=str(tmp_path / "sim"))
    config["jammer"] = {"target": "most_used"}
    config["traffic"] = {"requests_per_replication": 150, "replications": 2}
    assert main(["simulate", str(write_config(tmp_path, config, "sim.yaml"))]) == 0
    # One call per main job: 2 no_jamming + 2 nonzero powers x 2 unaware, no
    # pre-run; the 0 dB point reuses the no_jamming runs.
    assert len(calls) == 2 + 2 * 2
    assert calls.count((ControlMode.NO_JAMMING,)) == 2

    config["output_dir"] = str(tmp_path / "rank")
    assert main(["rank-links", str(write_config(tmp_path, config, "rank.yaml"))]) == 0
    for name in ("link_ranking.csv", "link_ranking.meta.json"):
        assert (tmp_path / "sim" / name).read_bytes() == (tmp_path / "rank" / name).read_bytes()


@pytest.mark.parametrize("topology", ["nsfnet", "file"])
def test_simulate_loads_the_topology_once_per_call(tmp_path, monkeypatch, topology):
    loads = []
    for name in ("nsfnet", "load_topology_file"):
        loader = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *args, _load=loader: loads.append(args) or _load(*args))
    config = dict(TINY, output_dir=str(tmp_path / "out"))
    config["jammer"] = {"target": "most_used"}
    config["traffic"] = {"requests_per_replication": 150, "replications": 1}
    if topology == "file":
        (tmp_path / "tiny.topo").write_text("nodes: A B C\nlink: A B 100\nlink: B C 300\n")
        config["topology"] = "tiny.topo"
    config_path = write_config(tmp_path, config)
    for warm in (False, True):
        loads.clear()
        assert main(["simulate", str(config_path)]) == 0
        assert (tmp_path / "out" / "link_ranking.csv").is_file()
        assert len(loads) == 1, "warm" if warm else "cold"
    # The loaded topology is held by the config, not read from the file as a key.
    assert validate(write_config(tmp_path, dict(config, _topology="x"), "key.yaml")) == [
        "config: unknown key '_topology'"
    ]


def test_simulate_on_two_workers_writes_the_bytes_of_one(tmp_path):
    config = dict(TINY, modes=["unaware", "aware"])
    config["epsilon_sweep"] = {"start": 2.0, "stop": 2.0, "step": 1.0}
    config["traffic"] = {"requests_per_replication": 300, "replications": 2}
    outputs = []
    for workers in (1, 2):
        outdir = tmp_path / f"workers{workers}"
        config_path = write_config(tmp_path, dict(config, workers=workers, output_dir=str(outdir)))
        started = []
        pool = concurrent.futures.ProcessPoolExecutor

        def counted(*args, **kwargs):
            started.append(kwargs["max_workers"])
            return pool(*args, **kwargs)

        with mock.patch.object(concurrent.futures, "ProcessPoolExecutor", counted):
            assert main(["simulate", str(config_path)]) == 0
        assert started == ([] if workers == 1 else [2])
        outputs.append([(outdir / name).read_bytes() for name in ("blocking.csv", "slots.csv")])
    assert outputs[0] == outputs[1]


SRC = Path(__file__).parent.parent / "src"

#: Modules only running replications needs: loading a config loads none.
RUN_ONLY_MODULES = ("numpy", "concurrent.futures.process", "multiprocessing")


def _fresh_process(script, *args):
    """Run ``script`` in a fresh isolated interpreter on this checkout's sources.

    Returns its last stdout line read as JSON, and the lines before it.
    """
    env = {key: value for key, value in os.environ.items() if key != "EONJAM_OUTPUT_DIR"}
    done = subprocess.run(
        [sys.executable, "-I", "-c", script, str(SRC), *map(str, args)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert done.returncode == 0, done.stderr
    *lines, last = done.stdout.splitlines()
    return json.loads(last), lines


_CLI_CHILD = f"""
import json, sys
sys.path.insert(0, sys.argv[1])
from eonjam import cli
code = cli.main(sys.argv[2:])
print(json.dumps([code, [name for name in {RUN_ONLY_MODULES!r} if name in sys.modules]]))
"""


def _fresh_cli(*argv):
    """Exit code, run-only modules loaded and stdout lines of one ``eonjam`` command, run fresh."""
    (code, loaded), lines = _fresh_process(_CLI_CHILD, *argv)
    return code, loaded, lines


@pytest.mark.parametrize("config_path", sorted(CONFIG_DIR.glob("*.yaml")), ids=lambda path: path.name)
def test_validate_loads_neither_numpy_nor_the_process_pool(config_path):
    assert _fresh_cli("validate", config_path) == (0, [], ["ok"])


#: Modules only the link ranking's cache needs: ``rank-links`` on a
#: cached ranking loads them, so they are not run-only modules.
CACHE_ONLY_MODULES = ("hashlib", "json")

# Lists the loaded modules before it imports json to report them.
_CACHE_CHILD = f"""
import sys
sys.path.insert(0, sys.argv[1])
from eonjam import cli
code = cli.main(sys.argv[2:])
loaded = [name for name in {CACHE_ONLY_MODULES!r} if name in sys.modules]
import json
print(json.dumps([code, loaded]))
"""


@pytest.mark.parametrize("config_path", sorted(CONFIG_DIR.glob("*.yaml")), ids=lambda path: path.name)
def test_validate_loads_neither_hashlib_nor_json(config_path):
    (code, loaded), lines = _fresh_process(_CACHE_CHILD, "validate", config_path)
    assert (code, loaded, lines) == (0, [], ["ok"])


#: Modules that build classes by generating code; nothing at start loads them.
CODEGEN_MODULES = ("dataclasses", "inspect")

# Lists the modules importing eonjam loaded, then those after the command.
_START_CHILD = f"""
import sys
sys.path.insert(0, sys.argv[1])
import eonjam
on_import = [name for name in {CODEGEN_MODULES!r} if name in sys.modules]
from eonjam import cli
code = cli.main(sys.argv[2:])
after = [name for name in {CODEGEN_MODULES!r} if name in sys.modules]
import json
print(json.dumps([code, on_import, after]))
"""


@pytest.mark.parametrize("config_path", sorted(CONFIG_DIR.glob("*.yaml")), ids=lambda path: path.name)
def test_start_loads_neither_dataclasses_nor_inspect(config_path):
    (code, on_import, after), lines = _fresh_process(_START_CHILD, "validate", config_path)
    assert (code, on_import, after, lines) == (0, [], [], ["ok"])


@pytest.mark.parametrize("command", ["validate", "simulate", "rank-links"])
def test_a_config_error_loads_neither_numpy_nor_the_process_pool(tmp_path, command):
    config_path = write_config(tmp_path, dict(TINY, base_seed=-1, output_dir=str(tmp_path / "out")))
    assert _fresh_cli(command, config_path) == (1, [], [])


def test_rank_links_on_a_cached_ranking_loads_neither_numpy_nor_the_process_pool(tmp_path, capsys):
    config_path = write_config(tmp_path, dict(TINY, output_dir=str(tmp_path / "out")))
    assert main(["rank-links", str(config_path)]) == 0
    computed = capsys.readouterr().out.splitlines()
    assert _fresh_cli("rank-links", config_path) == (0, [], computed)


_POOL_CHILD = """
import concurrent.futures, json, os, sys
sys.path.insert(0, sys.argv[1])
from eonjam import cli

numpy_at_pool_start = []


class FakePool:
    # Records whether numpy is loaded when the pool is built; maps in order, in this process.
    def __init__(self, max_workers):
        numpy_at_pool_start.append("numpy" in sys.modules)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


concurrent.futures.ProcessPoolExecutor = FakePool
os.cpu_count = lambda: 2
loaded_before = "numpy" in sys.modules
code = cli.main(["simulate", sys.argv[2]])
print(json.dumps([code, loaded_before, numpy_at_pool_start]))
"""


def test_the_pool_path_imports_numpy_before_the_pool_starts(tmp_path):
    # Forked workers inherit what the parent imported before the pool.
    config = dict(TINY, modes=["unaware", "aware"], workers=2, output_dir=str(tmp_path / "out"))
    config["epsilon_sweep"] = {"start": 2.0, "stop": 2.0, "step": 1.0}
    config["traffic"] = {"requests_per_replication": 50, "replications": 2}
    (code, loaded_before, numpy_at_pool_start), _ = _fresh_process(
        _POOL_CHILD, write_config(tmp_path, config)
    )
    assert (code, loaded_before, numpy_at_pool_start) == (0, False, [True])


def test_validate_missing_file():
    assert any("not found" in v for v in validate("/nonexistent/scenario.yaml"))


def test_run_writes_expected_rows(tmp_path, capsys):
    config_path = write_config(tmp_path, dict(TINY, output_dir=str(tmp_path / "out")))
    assert run(config_path) == 0
    out = capsys.readouterr().out
    assert "blocking=" in out

    blocking = (tmp_path / "out" / "blocking.csv").read_text().splitlines()
    # header + no_jamming (1 rep) + unaware (3 epsilon x 1 rep)
    assert blocking[0].startswith("mode,target,epsilon_db,replication")
    assert len(blocking) == 1 + 1 + 3
    assert blocking[1].split(",")[:3] == ["no_jamming", "na", "na"]

    slots = (tmp_path / "out" / "slots.csv").read_text().splitlines()
    assert len(slots) == 1 + 4 * 320
    for line in blocking[2:]:
        fields = line.split(",")
        float(fields[2])  # epsilon parses
        float(fields[4])  # blocking parses
        assert fields[1] == "8-9"


def test_run_is_byte_deterministic(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run(write_config(tmp_path, dict(TINY, output_dir=str(out_a)), "a.yaml"))
    run(write_config(tmp_path, dict(TINY, output_dir=str(out_b)), "b.yaml"))
    assert (out_a / "blocking.csv").read_bytes() == (out_b / "blocking.csv").read_bytes()
    assert (out_a / "slots.csv").read_bytes() == (out_b / "slots.csv").read_bytes()


def test_run_invalid_config_exit_code(tmp_path):
    bad = write_config(tmp_path, dict(TINY, epsilon_sweep={"start": 0, "stop": 1, "step": 0}))
    assert run(bad) == 1


def test_run_unknown_link_exit_code(tmp_path, capsys):
    config = dict(TINY, output_dir=str(tmp_path / "out"))
    config["jammer"] = {"target": "no-such-link"}
    assert run(write_config(tmp_path, config)) == 1
    err = capsys.readouterr().err
    assert err == "config error: jammer: unknown link id 'no-such-link'\n"
    assert not (tmp_path / "out").exists()


def test_validate_unknown_link_is_a_config_error(tmp_path, capsys):
    config = dict(TINY, jammer={"target": "99-100"})
    assert main(["validate", str(write_config(tmp_path, config))]) == 1
    captured = capsys.readouterr()
    assert captured.err == "config error: jammer: unknown link id '99-100'\n"
    assert captured.out == ""


_TINY_WITHOUT_TRAFFIC = {key: value for key, value in TINY.items() if key != "traffic"}


@pytest.mark.parametrize("command", ["validate", "simulate", "rank-links"])
@pytest.mark.parametrize(
    "config, message",
    [
        (dict(_TINY_WITHOUT_TRAFFIC, trafic=TINY["traffic"]), "config: unknown key 'trafic'"),
        (dict(TINY, mode="aware"), "config: unknown key 'mode'"),
        (dict(TINY, traffic={"requests": 200, "replications": 1}), "traffic: unknown key 'requests'"),
        (dict(TINY, jammer={"target": "8-9", "epsilon_db": 1.0}), "jammer: unknown key 'epsilon_db'"),
        (
            dict(TINY, epsilon_sweep={"start": 0.0, "stop": 1.0, "step": 0.5, "points": 3}),
            "epsilon_sweep: unknown key 'points'",
        ),
    ],
    ids=["top-level", "singular-mode", "traffic", "jammer", "epsilon_sweep"],
)
def test_unknown_key_is_a_config_error(tmp_path, capsys, command, config, message):
    # A misspelled key must not leave its section on the defaults.
    config = dict(config, output_dir=str(tmp_path / "out"))
    assert main([command, str(write_config(tmp_path, config))]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"config error: {message}\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "rank-links"])
def test_output_dir_on_a_regular_file_is_a_runtime_error(tmp_path, capsys, monkeypatch, command):
    taken = tmp_path / "taken"
    taken.write_text("")
    monkeypatch.setenv("EONJAM_OUTPUT_DIR", str(taken))
    assert main([command, str(write_config(tmp_path, TINY))]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("runtime error: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_rank_links_on_a_missing_config_is_a_config_error(tmp_path, capsys):
    missing = tmp_path / "missing.yaml"
    assert main(["rank-links", str(missing)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"config error: config: file not found: {missing}\n"
    assert captured.out == ""


def test_env_var_overrides_output_dir(tmp_path, monkeypatch):
    override = tmp_path / "elsewhere"
    monkeypatch.setenv("EONJAM_OUTPUT_DIR", str(override))
    config_path = write_config(tmp_path, dict(TINY, output_dir=str(tmp_path / "ignored")))
    assert run(config_path) == 0
    assert (override / "blocking.csv").is_file()
    assert not (tmp_path / "ignored").exists()


def test_per_link_slots_flag(tmp_path):
    config_path = write_config(tmp_path, dict(TINY, output_dir=str(tmp_path / "out")))
    assert main(["simulate", str(config_path), "--per-link-slots"]) == 0
    per_link = (tmp_path / "out" / "slots_by_link.csv").read_text().splitlines()
    assert per_link[0] == "mode,target,epsilon_db,link_id,slot_index,mean_utilization"
    assert len(per_link) == 1 + 4 * 21 * 320


def test_rank_links_command(tmp_path, capsys):
    config = dict(TINY, output_dir=str(tmp_path / "out"))
    config["traffic"] = {"requests_per_replication": 300, "replications": 1}
    config_path = write_config(tmp_path, config)
    assert main(["rank-links", str(config_path)]) == 0
    ranking_lines = (tmp_path / "out" / "link_ranking.csv").read_text().splitlines()
    assert ranking_lines[0] == "rank,link_id,mean_utilization"
    assert len(ranking_lines) == 1 + 21

    # Second invocation must reuse the cache (identical file, no rerun).
    before = (tmp_path / "out" / "link_ranking.csv").read_bytes()
    assert main(["rank-links", str(config_path)]) == 0
    assert (tmp_path / "out" / "link_ranking.csv").read_bytes() == before


def test_rank_links_recomputes_after_topology_edit(tmp_path):
    topo_file = tmp_path / "chain.topo"
    topo_file.write_text("nodes: A B C\nlink: A B 100\nlink: B C 100\n")
    config = dict(TINY, topology="chain.topo", output_dir=str(tmp_path / "out"))
    config["jammer"] = {"target": "most_used"}
    config["traffic"] = {"requests_per_replication": 300, "replications": 1}
    config_path = write_config(tmp_path, config)
    ranking = tmp_path / "out" / "link_ranking.csv"
    assert main(["rank-links", str(config_path)]) == 0
    before = ranking.read_text()

    # A longer A-B link changes which routes fit, so a stale cache would show.
    topo_file.write_text("nodes: A B C\nlink: A B 4000\nlink: B C 100\n")
    assert main(["rank-links", str(config_path)]) == 0
    assert ranking.read_text() != before


def test_validate_command_output(tmp_path, capsys):
    config_path = write_config(tmp_path, TINY)
    assert main(["validate", str(config_path)]) == 0
    assert "ok" in capsys.readouterr().out


def test_selector_scenario_uses_ranking_cache(tmp_path):
    config = dict(TINY, output_dir=str(tmp_path / "out"))
    config["jammer"] = {"target": "most_used"}
    config["traffic"] = {"requests_per_replication": 250, "replications": 1}
    config_path = write_config(tmp_path, config)
    assert run(config_path) == 0
    assert (tmp_path / "out" / "link_ranking.csv").is_file()
    blocking = (tmp_path / "out" / "blocking.csv").read_text().splitlines()
    target = blocking[2].split(",")[1]
    ranked_first = (tmp_path / "out" / "link_ranking.csv").read_text().splitlines()[1].split(",")[1]
    assert target == ranked_first


def _damage_ranking(outdir, damage):
    cache, meta = outdir / "link_ranking.csv", outdir / "link_ranking.meta.json"
    header, *rows = cache.read_text().splitlines()
    if damage == "truncated":
        rows = rows[:2]
    elif damage == "header-only":
        rows = []
    elif damage == "repeated-link":
        rows[1] = rows[1].split(",")[0] + "," + rows[0].split(",", 1)[1]
    elif damage == "non-finite":
        rows[-1] = rows[-1].rsplit(",", 1)[0] + ",nan"
    elif damage == "swapped-rows":
        rows[0], rows[1] = rows[1], rows[0]
    else:
        meta.write_text("[1]\n")
    cache.write_text("\n".join([header, *rows]) + "\n")


@pytest.mark.parametrize(
    "damage", ["truncated", "header-only", "repeated-link", "non-finite", "swapped-rows", "meta-list"]
)
@pytest.mark.parametrize("command", ["simulate", "rank-links"])
def test_damaged_ranking_cache_is_recomputed(tmp_path, command, damage):
    # A cache with the right key but not one finite value per link of the
    # topology, in non-increasing order, is rebuilt: a truncated one would
    # aim least_used at the wrong link, a header-only one would leave
    # nothing to select, swapped rows would aim most_used at the wrong link.
    config = dict(TINY, output_dir=str(tmp_path / "out"))
    config["jammer"] = {"target": "least_used"}
    config["traffic"] = {"requests_per_replication": 50, "replications": 1}
    config_path = write_config(tmp_path, config)
    outdir = tmp_path / "out"
    assert main(["rank-links", str(config_path)]) == 0
    intact = {name: (outdir / name).read_bytes() for name in ("link_ranking.csv", "link_ranking.meta.json")}
    _damage_ranking(outdir, damage)

    code, out, err = _cli(command, str(config_path))
    assert (code, err) == (0, "")
    for name, content in intact.items():
        assert (outdir / name).read_bytes() == content
    least_used = intact["link_ranking.csv"].decode().splitlines()[-1].split(",")[1]
    if command == "simulate":
        blocking = (outdir / "blocking.csv").read_text().splitlines()
        assert blocking[2].split(",")[1] == least_used
    else:
        assert len(out.splitlines()) == 21 + 1
        assert out.splitlines()[-2].split()[1] == least_used


def test_config_relative_topology_path(tmp_path):
    topo_file = tmp_path / "tiny.topo"
    topo_file.write_text("nodes: A B\nlink: A B 100\n")
    config = dict(TINY, topology="tiny.topo", output_dir=str(tmp_path / "out"))
    config["jammer"] = {"target": "A-B"}
    config["traffic"] = {"requests_per_replication": 120, "replications": 1}
    config_path = write_config(tmp_path, config)
    assert validate(config_path) == []
    assert run(config_path) == 0


# A scenario is drawn valid-looking, small enough to simulate in a few
# milliseconds (at most 20 requests, one replication, one worker, six
# sweep points), and then has up to three fields replaced by values the
# format may refuse.  Large sizes are left to the validate-only test.
_JUNK_NUMBERS = [float("nan"), float("inf"), -1, 0, 1.5, True, "x", None, [1]]
_PLAUSIBLE_SCENARIO = st.fixed_dictionaries(
    {
        "modes": st.one_of(
            st.lists(st.sampled_from(["no_jamming", "unaware", "aware"]), min_size=1, max_size=3),
            st.sampled_from(["no_jamming", "aware"]),
        ),
        "traffic": st.fixed_dictionaries(
            {"requests_per_replication": st.sampled_from([20, 1, 0]), "replications": st.just(1)},
            optional={
                "load_erlangs": st.sampled_from([200, 0.5, 1e6, 1e-305]),
                "mean_holding_s": st.sampled_from([600, 1e-3]),
                "bandwidth_choices_gbps": st.sampled_from([[40, 200, 400], [1000]]),
            },
        ),
    },
    optional={
        "topology": st.sampled_from(["nsfnet", "ring.topo"]),
        "jammer": st.fixed_dictionaries(
            {"target": st.sampled_from(["most_used", "least_used", "A-B", "8-9"])},
            optional={"jammed_ranges": st.sampled_from([[[50, 10]], [[0, 10], [20, 5]], [[310, 10]]])},
        ),
        "epsilon_sweep": st.fixed_dictionaries(
            {
                "start": st.sampled_from([0.0, 0.5, 1]),
                "stop": st.sampled_from([1.0, 2.5]),
                "step": st.sampled_from([0.5, 1.0]),
            }
        ),
        "base_seed": st.sampled_from([0, 3, 10**6]),
        "output_dir": st.just("out"),
        "detection_tolerance_db": st.sampled_from([0.1, 0.0, 5]),
        "workers": st.just(1),
    },
)
_ODD_VALUES = {
    ("topology",): st.sampled_from(["broken.topo", "one.topo", "missing.topo", "", 5, None]),
    ("modes",): st.sampled_from([[], ["bogus"], ["aware", "aware"], [1], 5, None, {"a": 1}]),
    ("jammer",): st.sampled_from([None, [1, 2], "x", {}]),
    ("jammer", "target"): st.sampled_from(["9-99", "", 5, None]),
    ("jammer", "jammed_ranges"): st.sampled_from(
        [[[0, 10], [5, 10]], [[315, 10]], [[1]], [["a", 2]], [[1.5, 2]], [[-1, 2]], [], 7, None]
    ),
    ("epsilon_sweep",): st.sampled_from(
        [
            None,
            5,
            "x",
            {},
            # Past the jamming-power bound, near where floats overflow.
            {"start": 1700, "stop": 1700, "step": 1},
            {"start": 3100, "stop": 3100, "step": 1},
        ]
    ),
    ("epsilon_sweep", "start"): st.sampled_from(_JUNK_NUMBERS),
    ("epsilon_sweep", "stop"): st.sampled_from(_JUNK_NUMBERS),
    ("epsilon_sweep", "step"): st.sampled_from(_JUNK_NUMBERS),
    ("traffic",): st.sampled_from([None, 5, [1], {}]),
    ("traffic", "load_erlangs"): st.sampled_from(_JUNK_NUMBERS),
    ("traffic", "mean_holding_s"): st.sampled_from(_JUNK_NUMBERS),
    ("traffic", "bandwidth_choices_gbps"): st.sampled_from(
        [[], [0], [-40], [float("inf")], [float("nan")], [40, "x"], "x", 40, None]
    ),
    ("traffic", "requests_per_replication"): st.sampled_from(_JUNK_NUMBERS),
    ("traffic", "replications"): st.sampled_from(_JUNK_NUMBERS),
    ("base_seed",): st.sampled_from(_JUNK_NUMBERS),
    ("output_dir",): st.sampled_from(["", 5, None]),
    ("detection_tolerance_db",): st.sampled_from(_JUNK_NUMBERS),
    ("workers",): st.sampled_from(_JUNK_NUMBERS),
}


@st.composite
def scenarios(draw):
    scenario = draw(_PLAUSIBLE_SCENARIO)
    paths = draw(st.lists(st.sampled_from(sorted(_ODD_VALUES)), max_size=3, unique=True))
    for path in paths:
        parent = scenario
        for key in path[:-1]:
            parent = parent.get(key) if isinstance(parent, dict) else None
        if isinstance(parent, dict):
            parent[path[-1]] = draw(_ODD_VALUES[path])
    return scenario


def _cli(*argv):
    """Exit code, stdout and stderr of one ``eonjam`` command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _validate(config_path):
    """Exit code of ``eonjam validate``, which must print ok or config errors only."""
    code, out, err = _cli("validate", str(config_path))
    assert code in (0, 1)
    if code == 0:
        assert (out, err) == ("ok\n", "")
    else:
        assert out == "" and err
        assert all(line.startswith("config error: ") for line in err.splitlines())
    return code


def _attack_at(power):
    """A scenario that attacks link 8-9 at one jamming power, in dB."""
    return {
        "modes": ["unaware", "aware"],
        "jammer": {"target": "8-9"},
        "epsilon_sweep": {"start": power, "stop": power, "step": 1},
        "traffic": {"requests_per_replication": 20, "replications": 1},
    }


@given(scenarios())
@example(_attack_at(1700))  # the squared PSD of a jammer channel overflows
@example(_attack_at(3100))  # the dB-to-linear conversion overflows
@example(  # the arrival clock overflows
    {"modes": ["no_jamming"], "traffic": {"requests_per_replication": 20, "replications": 1,
                                          "load_erlangs": 1e-305}}
)
@settings(max_examples=150, deadline=None)
def test_simulate_runs_what_validate_accepts(scenario):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "ring.topo").write_text("nodes: A B C\nlink: A B 100\nlink: B C 200\nlink: C A 300\n")
        (tmp / "broken.topo").write_text("nodes: A B\nlink: A C 100\n")
        (tmp / "one.topo").write_text("nodes: A\n")
        config_path = tmp / "scenario.yaml"
        config_path.write_text(yaml.safe_dump(scenario))

        if _validate(config_path) == 1:
            return
        with mock.patch.dict(os.environ, {"EONJAM_OUTPUT_DIR": str(tmp / "out")}):
            code, _, err = _cli("simulate", str(config_path))
        assert (code, err) == (0, "")
        assert (tmp / "out" / "blocking.csv").is_file()
        for written in (tmp / "out").glob("*.csv"):
            assert "nan" not in written.read_text().lower(), written.name


_AB89 = "nodes: A B 8 9\nlink: A B 100\nlink: B 8 100\nlink: 8 9 100\n"


def _jammer_owners(fields):
    """The jammer section's owners: the config, then the topology for a link id."""
    jammer = JammerConfig(**fields)
    if not jammer.uses_selector:
        load_topology(_AB89).link_by_id(jammer.target)


#: Each checked section: its converter in the CLI and its owner's check.
_SECTION_OWNERS = {
    "traffic": (cli._traffic_fields, lambda fields: TrafficModel(**fields)),
    "jammer": (cli._jammer_fields, _jammer_owners),
    "epsilon_sweep": (cli._sweep, lambda sweep: sim.epsilon_sweep_length(*sweep)),
}


@given(scenarios())
@settings(max_examples=150, deadline=None)
def test_each_section_owner_refuses_what_validate_refuses(scenario):
    # Each drawn section is put in an otherwise valid scenario.  Once
    # converted, its owner must refuse it exactly when validate reports a
    # violation under the section's prefix, and with the same message;
    # a check only the CLI made would break this.
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "ab89.topo").write_text(_AB89)
        for name, (convert, owner) in _SECTION_OWNERS.items():
            raw = scenario.get(name)
            if raw is None:  # an absent section has no owner to ask
                continue
            config_path = write_config(tmp, dict(TINY, topology="ab89.topo", **{name: raw}))
            reported = [v for v in validate(config_path) if v.startswith(f"{name}: ")]
            try:
                converted = convert(raw)
            except (TypeError, ValueError):
                assert reported, (name, raw)
                continue
            try:
                owner(converted)
            except ValueError as exc:
                assert reported == [f"{name}: {exc}"]
            else:
                assert reported == []


@given(
    st.fixed_dictionaries(
        {
            "workers": st.sampled_from([1, 64, 10**6]),
            "requests": st.sampled_from([20, 10**9]),
            "replications": st.sampled_from([1, 10**6]),
            "step": st.sampled_from([0.5, 1e-9]),
        }
    )
)
@settings(max_examples=20, deadline=None)
def test_validate_judges_large_values_without_running_them(sizes):
    # Large worker counts, request counts and sweeps are only validated:
    # validate loads the config and its topology and starts nothing,
    # whether it accepts them or not.
    scenario = dict(
        TINY,
        workers=sizes["workers"],
        traffic={"requests_per_replication": sizes["requests"], "replications": sizes["replications"]},
        epsilon_sweep={"start": 0.0, "stop": 5.0, "step": sizes["step"]},
    )
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        sim, "_replicate", side_effect=AssertionError("validate ran a replication")
    ), mock.patch.object(concurrent.futures, "ProcessPoolExecutor", side_effect=AssertionError("validate started workers")):
        config_path = Path(tmp) / "scenario.yaml"
        config_path.write_text(yaml.safe_dump(scenario))
        _validate(config_path)
