import os
from pathlib import Path

import pytest
import yaml

from eonjam import sim
from eonjam.cli import load_config, main, run, validate
from eonjam.control_plane import ControlMode

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
    violations = validate(write_config(tmp_path, bad))
    assert any("sweep.step" in v for v in violations)


def test_validate_names_range_violation(tmp_path):
    bad = dict(TINY, jammer={"target": "8-9", "jammed_ranges": [[315, 10]]})
    violations = validate(write_config(tmp_path, bad))
    assert any("range exceeds grid" in v for v in violations)


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


@pytest.mark.parametrize(
    "override, message",
    [
        ({"detection_tolerance_db": float("nan")}, "detection_tolerance_db: must be a finite number"),
        ({"traffic": {"load_erlangs": float("inf")}}, "traffic: load_erlangs: expected a finite number"),
        ({"epsilon_sweep": {"start": float("nan"), "stop": 1.0, "step": 0.5}}, "epsilon_sweep: expected finite"),
        ({"epsilon_sweep": {"start": 0.0, "stop": float("nan"), "step": 0.5}}, "epsilon_sweep: expected finite"),
        ({"epsilon_sweep": {"start": -1.0, "stop": 1.0, "step": 0.5}}, "sweep.start: must be >= 0"),
        ({"epsilon_sweep": {"start": 0.0, "stop": -1.0, "step": 0.5}}, "sweep.stop: must be >= sweep.start"),
        ({"base_seed": True}, "base_seed: must be an integer"),
        ({"traffic": {"requests_per_replication": 10.7}}, "traffic: requests_per_replication: expected an integer"),
    ],
    ids=["nan-tolerance", "inf-load", "nan-start", "nan-stop", "negative-start", "negative-stop",
         "bool-seed", "fractional-requests"],
)
def test_non_finite_or_fractional_number_is_a_config_error(tmp_path, capsys, override, message):
    config_path = write_config(tmp_path, dict(TINY, **override))
    assert main(["validate", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_broken_topology_is_a_config_error_for_selector_targets(tmp_path, capsys, command):
    (tmp_path / "broken.topo").write_text("nodes: A B\nlink: A C 100\n")
    config = dict(TINY, topology="broken.topo", output_dir=str(tmp_path / "out"))
    config["jammer"] = {"target": "most_used"}
    assert main([command, str(write_config(tmp_path, config))]) == 1
    captured = capsys.readouterr()
    assert captured.err == "config error: topology: link A-C references an undeclared node\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_cold_simulate_ranks_from_its_own_no_jamming_runs(tmp_path, monkeypatch):
    calls = []
    replicate = sim.run_replication

    def counted(*args, **kwargs):
        calls.append(args[3])
        return replicate(*args, **kwargs)

    monkeypatch.setattr(sim, "run_replication", counted)
    config = dict(TINY, output_dir=str(tmp_path / "sim"))
    config["jammer"] = {"target": "most_used"}
    config["traffic"] = {"requests_per_replication": 150, "replications": 2}
    assert main(["simulate", str(write_config(tmp_path, config, "sim.yaml"))]) == 0
    # One call per main job: 2 no_jamming + 3 powers x 2 unaware, no pre-run.
    assert len(calls) == 2 + 3 * 2
    assert calls.count(ControlMode.NO_JAMMING) == 2

    config["output_dir"] = str(tmp_path / "rank")
    assert main(["rank-links", str(write_config(tmp_path, config, "rank.yaml"))]) == 0
    for name in ("link_ranking.csv", "link_ranking.meta.json"):
        assert (tmp_path / "sim" / name).read_bytes() == (tmp_path / "rank" / name).read_bytes()


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
    assert err == "config error: jammer.target: unknown link id 'no-such-link'\n"
    assert not (tmp_path / "out").exists()


def test_validate_unknown_link_is_a_config_error(tmp_path, capsys):
    config = dict(TINY, jammer={"target": "99-100"})
    assert main(["validate", str(write_config(tmp_path, config))]) == 1
    captured = capsys.readouterr()
    assert captured.err == "config error: jammer.target: unknown link id '99-100'\n"
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


def test_config_relative_topology_path(tmp_path):
    topo_file = tmp_path / "tiny.topo"
    topo_file.write_text("nodes: A B\nlink: A B 100\n")
    config = dict(TINY, topology="tiny.topo", output_dir=str(tmp_path / "out"))
    config["jammer"] = {"target": "A-B"}
    config["traffic"] = {"requests_per_replication": 120, "replications": 1}
    config_path = write_config(tmp_path, config)
    assert validate(config_path) == []
    assert run(config_path) == 0
