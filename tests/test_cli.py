"""Command-line surface: exit codes, artifacts, strict configs, determinism."""

import json
from pathlib import Path

import pytest

from folnerlab.cli import main, run_scenario


def run(args):
    return main([str(a) for a in args])


def box_elements(n):
    return ";".join(f"{i},{j}" for i in range(n) for j in range(n))


def test_model_descriptor(tmp_path, capsys):
    out = tmp_path / "m.json"
    assert run(["model", "--kind", "free", "--rank", "2", "--out", out]) == 0
    payload = json.loads(out.read_text())
    assert payload["kind"] == "free"
    assert payload["metric"] == {"rule": "word"}


def test_defect_subcommand(tmp_path, capsys):
    code = run(
        [
            "folner-defect", "--kind", "lattice", "--dim", "2",
            "--F", box_elements(10),
            "--E", "1,0;-1,0;0,1;0,-1",
            "--radius", "0",
            "--out-dir", tmp_path,
        ]
    )
    assert code == 0
    assert "9/10" in capsys.readouterr().out
    report = (tmp_path / "report.csv").read_text().splitlines()
    assert report[0] == "candidate_id,|F|,theta,seminorm_bound,passed"
    assert report[1].startswith("0,100,9/10")
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["theta"] == "9/10"
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert set(manifest) >= {"config_hash", "package_version", "wall_time_s"}


def test_search_target_not_met_exit_2(tmp_path):
    code = run(
        [
            "folner-search", "--kind", "free", "--rank", "2",
            "--E", "a;b", "--radius", "0", "--theta", "3/5",
            "--strategy", "balls", "--budget", "6",
            "--out-dir", tmp_path,
        ]
    )
    assert code == 2
    payload = json.loads((tmp_path / "certificate.json").read_text())
    assert payload["found"] is False


def test_matching_subcommand(tmp_path, capsys):
    code = run(
        [
            "matching", "--kind", "circle",
            "--E", "0;3/10", "--F", "1/20;7/20", "--radius", "1/10",
            "--out-dir", tmp_path,
        ]
    )
    assert code == 0
    assert "mu=2" in capsys.readouterr().out
    instance = json.loads((tmp_path / "instance.json").read_text())
    assert instance["edges"] == [[0, 0], [1, 1]]


def test_seminorm_subcommand(tmp_path, capsys):
    weight = tmp_path / "w.json"
    weight.write_text(json.dumps({"support": ["0", "2/5"], "weights": ["1", "-1"]}))
    assert run(["seminorm", "--kind", "circle", "--weight", weight]) == 0
    assert "2/5" in capsys.readouterr().out


def test_seminorm_invariance_csv(tmp_path):
    weight = tmp_path / "w.json"
    weight.write_text(
        json.dumps({"support": [str(i) for i in range(10)], "weights": ["1/10"] * 10})
    )
    code = run(
        ["seminorm", "--kind", "lattice", "--dim", "1", "--weight", weight,
         "--E", "1", "--out-dir", tmp_path]
    )
    assert code == 0
    rows = (tmp_path / "report.csv").read_text().splitlines()
    assert rows[0] == "g,p_d_defect,lp_pivots,witness_range"
    assert rows[1].startswith("1,1/5,")


def test_precompact_subcommand(tmp_path, capsys):
    code = run(
        ["precompact", "--kind", "circle", "--radius", "7/20",
         "--window-resolution", "60", "--sample-resolution", "12",
         "--out-dir", tmp_path]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "order=12" in out
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["group_order"] == 12


def test_paradox_verify_subcommand(tmp_path, capsys):
    code = run(
        ["paradox", "verify", "--kind", "free", "--rank", "2", "--standard",
         "--window-resolution", "5", "--out-dir", tmp_path]
    )
    assert code == 0
    rows = (tmp_path / "report.csv").read_text().splitlines()
    assert rows[0] == "equation,checkable,violations,boundary_defects"
    assert all(line.split(",")[2] == "0" for line in rows[1:])


def test_paradox_search_subcommand(tmp_path):
    code = run(
        ["paradox", "search", "--kind", "lattice", "--dim", "1",
         "--window-resolution", "4", "--pool=-1;0;1", "--max-pieces", "4",
         "--budget", "200000", "--out-dir", tmp_path]
    )
    assert code in (0, 2)
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["per_piece_count"][0]["pieces"] == 4


def test_malformed_radius_diagnostic(capsys):
    code = run(
        ["folner-defect", "--kind", "lattice", "--dim", "1",
         "--F", "0", "--E", "1", "--radius", "0.1.1"]
    )
    assert code == 1
    assert "params.radius" in capsys.readouterr().err


def test_unknown_field_rejected(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(
        json.dumps(
            {
                "model": {"kind": "circle"},
                "task": "defect",
                "params": {"F": ["0"], "E": ["0"], "radius": "1", "extra": True},
            }
        )
    )
    assert run_scenario(config) == 1
    assert "params.extra" in capsys.readouterr().err


def test_scenario_roundtrip_and_determinism(tmp_path):
    config = tmp_path / "scenario.json"
    config.write_text(
        json.dumps(
            {
                "model": {"kind": "circle", "params": {}},
                "task": "defect",
                "params": {
                    "F": [f"{k}/12" if k else "0" for k in range(12)],
                    "E": ["1/3"],
                    "radius": "1/24",
                },
            }
        )
    )
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert run_scenario(config, out_dir=out1) == 0
    assert run_scenario(config, out_dir=out2) == 0
    assert (out1 / "certificate.json").read_bytes() == (out2 / "certificate.json").read_bytes()
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["config_hash"] == m2["config_hash"]


def test_missing_config_file(capsys):
    assert run_scenario(Path("/nonexistent/config.json")) == 1
    assert "cannot read" in capsys.readouterr().err


def test_invalid_json_config(tmp_path, capsys):
    config = tmp_path / "broken.json"
    config.write_text("{not json")
    assert run_scenario(config) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_suite_scenarios_dir(tmp_path, capsys):
    scen_dir = tmp_path / "scenarios"
    scen_dir.mkdir()
    (scen_dir / "one.json").write_text(
        json.dumps(
            {
                "model": {"kind": "lattice", "params": {"dim": 1}},
                "task": "defect",
                "params": {"F": [str(i) for i in range(10)], "E": ["1", "-1"], "mode": "discrete"},
            }
        )
    )
    assert run(["suite", "--scenarios", scen_dir, "--out-dir", tmp_path / "out"]) == 0
    rows = (tmp_path / "out" / "report.csv").read_text().splitlines()
    assert rows[1] == "one.json,0"


def test_suite_scenarios_empty_dir(tmp_path):
    empty = tmp_path / "none"
    empty.mkdir()
    assert run(["suite", "--scenarios", empty, "--out-dir", tmp_path / "out"]) == 0


def test_suite_selected_criteria(tmp_path, capsys):
    assert run(["suite", "--criteria", "1,2", "--out-dir", tmp_path]) == 0
    out = capsys.readouterr().out
    assert "hall-identity" in out and "perfect-iff-hall" in out
    rows = (tmp_path / "report.csv").read_text().splitlines()
    assert len(rows) == 3


def test_suite_detects_injected_fault(monkeypatch, capsys):
    # dropping one matched pair must make the Hall-identity row fail
    from folnerlab import matching as matching_mod

    original = matching_mod._hopcroft_karp

    def skewed(adjacency, n_right):
        match_left, match_right = original(adjacency, n_right)
        for i, v in enumerate(match_left):
            if v >= 0:
                match_left[i] = -1
                match_right[v] = -1
                break
        return match_left, match_right

    monkeypatch.setattr(matching_mod, "_hopcroft_karp", skewed)
    code = run(["suite", "--criteria", "1"])
    assert code == 2
    assert "FAIL" in capsys.readouterr().out


def test_defect_crosscheck_column(tmp_path):
    config = tmp_path / "s.json"
    config.write_text(
        json.dumps(
            {
                "model": {"kind": "lattice", "params": {"dim": 2}},
                "task": "defect",
                "params": {
                    "F": [f"{i},{j}" for i in range(4) for j in range(4)],
                    "E": ["1,0", "-1,0", "0,1", "0,-1"],
                    "radius": "0",
                    "crosscheck": True,
                },
            }
        )
    )
    assert run_scenario(config, out_dir=tmp_path / "out") == 0
    row = (tmp_path / "out" / "report.csv").read_text().splitlines()[1]
    assert row == "0,16,3/4,5/8,yes"


def test_scenario_with_seed_and_local_strategy(tmp_path):
    config = tmp_path / "local.json"
    config.write_text(
        json.dumps(
            {
                "model": {"kind": "lattice", "params": {"dim": 1}},
                "task": "search",
                "params": {
                    "E": ["1", "-1"],
                    "radius": "0",
                    "theta": "1/2",
                    "strategy": "local",
                    "budget": 12,
                },
                "seed": 11,
            }
        )
    )
    first, second = tmp_path / "a", tmp_path / "b"
    code1 = run_scenario(config, out_dir=first)
    code2 = run_scenario(config, out_dir=second)
    assert code1 == code2
    if (first / "certificate.json").exists():
        assert (first / "certificate.json").read_bytes() == (second / "certificate.json").read_bytes()


def test_perturb_build_via_config(tmp_path):
    config = tmp_path / "build.json"
    config.write_text(
        json.dumps(
            {
                "model": {"kind": "circle", "params": {}},
                "task": "perturb",
                "params": {
                    "mode": "build",
                    "indices": [{"E": ["0", "1/5"], "n": 4}],
                    "radius": "1/10",
                    "budget": 40,
                },
            }
        )
    )
    out = tmp_path / "out"
    assert run_scenario(config, out_dir=out) == 0
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["involution"] and all(cert["involution"].values())
    report = json.loads((out / "report.json").read_text())
    assert report["violations"] == []


def test_perturb_wobble_via_config(tmp_path):
    # rotation by 1/4 of the 8-point grid, decomposed over a single translator
    perm = [(k + 2) % 8 for k in range(8)]
    config = tmp_path / "wobble.json"
    config.write_text(
        json.dumps(
            {
                "model": {"kind": "circle", "params": {}},
                "task": "perturb",
                "params": {
                    "mode": "wobble",
                    "window": [f"{k}/8" if k else "0" for k in range(8)],
                    "pool": ["1/4"],
                    "permutation": perm,
                },
            }
        )
    )
    out = tmp_path / "out"
    assert run_scenario(config, out_dir=out) == 0
    cert = json.loads((out / "certificate.json").read_text())
    assert len(cert["pieces"]) == 1
    assert cert["pieces"][0]["translator"] == "1/4"


def test_verify_certificate_roundtrip(tmp_path, capsys):
    code = run(
        ["folner-defect", "--kind", "lattice", "--dim", "2",
         "--F", box_elements(5), "--E", "1,0;0,1", "--radius", "0",
         "--out-dir", tmp_path]
    )
    assert code == 0
    cert_path = tmp_path / "certificate.json"
    assert run(["folner-defect", "--verify-cert", cert_path]) == 0
    assert "certificate valid" in capsys.readouterr().out
    # tamper with theta: verification must reject it
    payload = json.loads(cert_path.read_text())
    payload["theta"] = "1/5"
    bad_path = tmp_path / "tampered.json"
    bad_path.write_text(json.dumps(payload))
    assert run(["folner-defect", "--verify-cert", bad_path]) == 2
    assert "INVALID" in capsys.readouterr().out
    # an unreadable file is a usage error, not a traceback
    assert run(["folner-defect", "--verify-cert", tmp_path / "missing.json"]) == 1
    assert "--verify-cert" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra, field",
    [
        ({"F": ["0", "1/0"]}, "params.F[1]"),
        ({"metric": {"rule": "scaled", "factor": "2"}}, "params.metric.base"),
    ],
)
def test_malformed_field_diagnostic(tmp_path, capsys, extra, field):
    params = {"F": ["0", "1/2"], "E": ["1/4"], "radius": "1/8", **extra}
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"model": {"kind": "circle"}, "task": "defect", "params": params}))
    assert run_scenario(config) == 1
    assert field in capsys.readouterr().err
