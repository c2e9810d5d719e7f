"""Command-line surface: exit codes, artifacts, strict configs, determinism."""

import ast
import contextlib
import io
import itertools
import json
import re
import shlex
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folnerlab import cli, suite
from folnerlab.cli import ConfigError, _config_from_flags, _parser, main, run_scenario_config
from folnerlab.folner import FolnerCertificate
from folnerlab.groups import CertificateError, make_model
from folnerlab.paradox import CLASSIFIER_DEPTH_CAP, ParadoxCertificate, f2_standard_certificate
from folnerlab.perturb import PerturbedAction
from folnerlab.weights import FiniteWeight


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


def test_model_descriptor_from_file(tmp_path, capsys):
    # --model FILE is read, not replaced by the lattice default
    descriptor = tmp_path / "m.json"
    descriptor.write_text(json.dumps({"kind": "free", "params": {"rank": 3}}))
    assert run(["model", "--model", descriptor]) == 0
    assert json.loads(capsys.readouterr().out)["params"] == {"rank": 3}


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


def test_search_report_names_the_best_candidate(tmp_path):
    # The grid search misses target 1 on all five grids; the best theta (0,
    # on the one-point grid {0}) is candidate 0, not the last one tried.
    config = {
        "task": "search",
        "model": {"kind": "circle", "params": {}},
        "params": {"E": ["1/12"], "radius": "1/144", "theta": "1", "strategy": "grid", "budget": 5},
    }
    assert run_scenario_config(config, out_dir=tmp_path) == 2
    payload = json.loads((tmp_path / "certificate.json").read_text())
    assert payload["candidates_tried"] == 5
    assert payload["certificate"]["F"] == ["0"]
    report = (tmp_path / "report.csv").read_text().splitlines()
    assert report[1] == "0,1,0,,no"


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


@pytest.mark.parametrize(
    "args, flag",
    [
        (["seminorm", "--kind", "circle", "--weight"], "--weight"),
        (["paradox", "verify", "--kind", "free", "--rank", "2", "--cert"], "--cert"),
        (["folner-defect", "--F", "0", "--E", "1", "--radius", "0", "--model"], "--model"),
        (["matching", "--kind", "lattice", "--F", "0", "--radius", "0", "--E"], "--E"),
        (["paradox", "search", "--kind", "lattice", "--pool"], "--pool"),
    ],
)
def test_unreadable_file_flag(tmp_path, capsys, args, flag):
    # a missing or non-JSON file is a usage error naming the flag, not a traceback
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    for path in (tmp_path / "missing.json", broken):
        assert run(args + [path]) == 1
        assert f"error: {flag}:" in capsys.readouterr().err


def test_seminorm_without_weight(capsys):
    assert run(["seminorm", "--kind", "circle"]) == 1
    assert "--weight: missing required flag" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, flag",
    [
        (["matching", "--kind", "lattice", "--F", "0", "--radius", "0"], "--E"),
        (["matching", "--kind", "lattice", "--E", "0", "--radius", "0"], "--F"),
        (["folner-defect", "--kind", "lattice", "--E", "1", "--radius", "0"], "--F"),
        (["folner-search", "--kind", "lattice", "--radius", "0", "--theta", "1/2"], "--E"),
        (["paradox", "search", "--kind", "lattice", "--max-pieces", "4"], "--pool"),
        (["folner-defect", "--F", "0", "--E", "1", "--radius", "0"], "--kind"),
        (["matching", "--kind", "lattice", "--E", "0", "--F", "1"], "--radius"),
        (["folner-search", "--kind", "lattice", "--E", "1", "--theta", "1/2"], "--radius"),
        (["folner-search", "--kind", "lattice", "--E", "1", "--radius", "0"], "--theta"),
        (["precompact", "--kind", "circle"], "--radius"),
        (["paradox", "verify", "--kind", "free", "--rank", "2"], "--cert"),
    ],
)
def test_missing_required_flag_is_named(capsys, args, flag):
    # each used to end in a TypeError traceback from the window parser, or
    # (--radius, --theta, --cert) to name the params field, not the flag
    assert run(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: missing required flag")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "args, want",
    [
        (["suite", "--criteria", "x"], "--criteria: expected comma-separated criterion numbers"),
        (["suite", "--criteria", "1,99"], "params.criteria[1]: unknown criterion 99"),
        (["paradox", "verify", "--kind", "free", "--rank", "2", "--standard", "--cert", "c.json"],
         "params.standard: give a certificate or standard: true, not both"),
        # a flag the mode does not read used to be left out, and the scenario ran with exit 0
        (["paradox", "verify", "--kind", "free", "--rank", "2", "--standard", "--pool", "a"],
         "--pool: not read in standard mode\n"),
        (["paradox", "verify", "--kind", "free", "--rank", "2", "--standard", "--max-pieces", "5"],
         "--max-pieces: not read in standard mode\n"),
        (["paradox", "search", "--kind", "lattice", "--pool", "0", "--standard"],
         "--standard: not read in paradox-search mode\n"),
        (["folner-defect", "--verify-cert", "c.json", "--F", "0"], "--F: not read in certificate mode\n"),
        # a model flag beside --verify-cert used to be dropped, and the certificate verified with exit 0
        (["folner-defect", "--verify-cert", "c.json", "--model", "m.json"], "--model: not read in certificate mode\n"),
        (["folner-defect", "--verify-cert", "c.json", "--kind", "circle"], "--kind: not read in certificate mode\n"),
        (["folner-defect", "--verify-cert", "c.json", "--dim", "2"], "--dim: not read in certificate mode\n"),
        (["folner-defect", "--verify-cert", "c.json", "--rank", "2"], "--rank: not read in certificate mode\n"),
        (["folner-defect", "--verify-cert", "c.json", "--modulus", "5"], "--modulus: not read in certificate mode\n"),
    ],
)
def test_flag_value_error_is_named(tmp_path, monkeypatch, capsys, args, want):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text(json.dumps(STANDARD_CERTIFICATE))
    assert run(args) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {want}")
    assert captured.out == ""


@pytest.mark.parametrize(
    "args",
    [
        ["seminorm", "--kind", "circle", "--seed", "3"],
        ["matching", "--kind", "circle", "--budget", "3"],
        ["paradox", "verify", "--seed", "3"],
        ["perturb", "precompact", "--kind", "circle", "--radius", "7/20"],
        ["perturb"],
    ],
)
def test_flags_a_subcommand_does_not_read_are_usage_errors(capsys, args):
    with pytest.raises(SystemExit) as info:
        run(args)
    assert info.value.code == 2
    assert "usage: folnerlab" in capsys.readouterr().err


def test_each_subcommand_registers_only_the_run_flags_it_reads():
    sub = next(a for a in _parser()._actions if a.dest == "command")
    flags = {
        name: {opt for action in p._actions for opt in action.option_strings if opt not in ("-h", "--help")}
        for name, p in sub.choices.items()
    }
    assert {name for name, opts in flags.items() if "--seed" in opts} == {"folner-search"}
    assert {name for name, opts in flags.items() if "--budget" in opts} == {"folner-search", "paradox"}
    assert flags["perturb"] == {"--config", "--out-dir"}
    registered = sum(1 for p in sub.choices.values() for a in p._actions if "-h" not in a.option_strings)
    assert registered <= 80


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
    assert run(["perturb", "--config", config]) == 1
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
    assert run(["perturb", "--config", config, "--out-dir", out1]) == 0
    assert run(["perturb", "--config", config, "--out-dir", out2]) == 0
    assert (out1 / "certificate.json").read_bytes() == (out2 / "certificate.json").read_bytes()
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["config_hash"] == m2["config_hash"]


def test_missing_config_file(capsys):
    assert run(["perturb", "--config", "/nonexistent/config.json"]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_invalid_json_config(tmp_path, capsys):
    config = tmp_path / "broken.json"
    config.write_text("{not json")
    assert run(["perturb", "--config", config]) == 1
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


def test_suite_scenarios_run_does_not_nest(tmp_path, monkeypatch, capsys):
    # a scenarios run whose directory holds itself used to recurse until
    # Python's recursion limit; it is now one refused row beside the others
    (tmp_path / "s.json").write_text(json.dumps({"task": "suite", "params": {"scenarios": "."}}))
    (tmp_path / "t.json").write_text(json.dumps({"task": "defect", "model": {"kind": "lattice"},
                                                 "params": {"F": ["0", "1"], "E": ["1"], "mode": "discrete"}}))
    monkeypatch.chdir(tmp_path)
    assert run(["suite", "--config", "s.json"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: params.scenarios: scenario runs do not nest\n"
    assert captured.out == "discrete defect: 1/2\ns.json: exit 1\nt.json: exit 0\n"


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


def test_suite_manifest_lists_the_files_the_criteria_write(tmp_path, capsys):
    # criteria 9 and 11 write their own certificates: the manifest lists
    # them beside the report, also on a second run that rewrites them
    out = tmp_path / "out"
    for _ in range(2):
        assert run(["suite", "--criteria", "9,11", "--out-dir", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["artifacts"] == ["free_paradox_certificate.json", "precompact_circle.json", "report.csv"]
        assert sorted(p.name for p in out.iterdir()) == sorted([*manifest["artifacts"], "manifest.json"])


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


def _steady(files):
    files["steady.json"] = {"value": "1/2"}


def test_determinism_criterion_catches_a_payload_that_changes(monkeypatch):
    calls = itertools.count()

    def drifting(files):
        files["drift.json"] = {"call": next(calls)}

    monkeypatch.setattr(suite, "CERTIFICATE_WRITERS", (_steady,))
    (row,) = suite.run_suite(numbers=[13])
    assert (row.passed, row.measured) == (True, "1 certificate files byte-identical across two runs")
    monkeypatch.setattr(suite, "CERTIFICATE_WRITERS", (_steady, drifting))
    (row,) = suite.run_suite(numbers=[13])
    assert (row.passed, row.measured) == (False, "drift.json differs between runs")


def test_determinism_criterion_catches_a_file_emitted_once(monkeypatch):
    calls = itertools.count()

    def once(files):
        if next(calls) == 0:
            files["once.json"] = {}

    monkeypatch.setattr(suite, "CERTIFICATE_WRITERS", (_steady, once))
    (row,) = suite.run_suite(numbers=[13])
    assert (row.passed, row.measured) == (False, "certificate sets differ")


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
    assert run(["perturb", "--config", config, "--out-dir", tmp_path / "out"]) == 0
    row = (tmp_path / "out" / "report.csv").read_text().splitlines()[1]
    assert row == "0,16,3/4,5/8,yes"


def test_radius_0_crosscheck_of_a_scaled_word_metric(tmp_path):
    # The radius-0 ball of 2 * word is the word metric's, and so is the bound.
    scaled = {"rule": "scaled", "factor": "2", "base": {"rule": "word"}}
    rows = []
    for metric in ({"rule": "word"}, scaled):
        out = tmp_path / metric["rule"]
        config = {**DEFECT, "params": {**DEFECT["params"], "metric": metric, "crosscheck": True}}
        assert run_scenario_config(config, out_dir=out) == 0
        rows.append((out / "report.csv").read_text().splitlines()[1])
    assert rows[0] == rows[1] == "0,2,1/2,3/4,yes"


@pytest.mark.parametrize("mode", ["topological", "search", "certificate"])
def test_crosscheck_past_the_support_cap_names_its_field(tmp_path, capsys, mode):
    # a - g.a holds up to 2|F| points, past the seminorm's 200-point cap for
    # some windows under the 200-point crosscheck limit; it used to exit 1
    # with no field path
    far = {"task": "defect", "model": LATTICE_1,
           "params": {"F": [str(k) for k in range(150)], "E": ["150"], "radius": "0"}}
    if mode == "topological":
        base, support = far, 300
    elif mode == "search":  # the best ball, of 103 points, meets its 101-translate in 2
        base, support = {"task": "search", "model": LATTICE_1,
                         "params": {"E": ["101"], "radius": "0", "theta": "1", "strategy": "balls", "budget": 51}}, 202
    else:
        assert run_scenario_config(far, out_dir=tmp_path / "cert") == 0
        cert = json.loads((tmp_path / "cert" / "certificate.json").read_text())
        base, support = {"task": "defect", "params": {"certificate": cert}}, 300
    config = {**base, "params": {**base["params"], "crosscheck": True}}
    message = f"a - g.a: support {support} exceeds cap 200"
    with pytest.raises(ConfigError, match=message) as info:
        run_scenario_config(config)
    assert info.value.path == "params.crosscheck"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    capsys.readouterr()
    assert run(["perturb", "--config", path]) == 1
    assert capsys.readouterr().err == f"error: params.crosscheck: {message}\n"


def test_crosscheck_fault_is_not_a_config_error(tmp_path, monkeypatch):
    # only the bridge metric's refusal is named at params.crosscheck
    def broken(cert):
        raise ValueError("internal fault")

    monkeypatch.setattr(cli, "seminorm_crosscheck", broken)
    config = {**DEFECT, "params": {**DEFECT["params"], "crosscheck": True}}
    with pytest.raises(ValueError, match="internal fault") as caught:
        run_scenario_config(config, out_dir=tmp_path / "out")
    assert not isinstance(caught.value, ConfigError)


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
    code1 = run(["perturb", "--config", config, "--out-dir", first])
    code2 = run(["perturb", "--config", config, "--out-dir", second])
    assert code1 == code2
    if (first / "certificate.json").exists():
        assert (first / "certificate.json").read_bytes() == (second / "certificate.json").read_bytes()


def test_perturb_build_via_config(tmp_path, capsys):
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
    assert run(["perturb", "--config", config, "--out-dir", out]) == 0
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["involution"] and all(cert["involution"].values())
    report = json.loads((out / "report.json").read_text())
    assert report["violations"] == []
    # a table entry that is not a JSON integer is rejected, not read as an index
    g, row = next(iter(cert["rows"].items()))
    k = next(i for i, j in enumerate(row) if j is not None)
    row[k] = float(row[k])
    verify = {"model": {"kind": "circle"}, "task": "perturb",
              "params": {"mode": "verify", "action": cert, "radius": "1/10"}}
    config.write_text(json.dumps(verify))
    capsys.readouterr()
    assert run(["perturb", "--config", config]) == 1
    assert f"row of {g}: expected a JSON integer" in capsys.readouterr().err


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
    assert run(["perturb", "--config", config, "--out-dir", out]) == 0
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
    # a non-integer mu is a malformed file, named by its field
    payload["theta"] = json.loads(cert_path.read_text())["theta"]
    payload["matchings"]["0,1"]["mu"] = float(payload["matchings"]["0,1"]["mu"])
    bad_path.write_text(json.dumps(payload))
    assert run(["folner-defect", "--verify-cert", bad_path]) == 1
    assert "mu: expected a JSON integer" in capsys.readouterr().err
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
    assert run(["perturb", "--config", config]) == 1
    assert field in capsys.readouterr().err


F2_MODEL = {"kind": "free", "params": {"rank": 2}}
CIRCLE = {"kind": "circle", "params": {}}
INTEGER_FIELDS = {
    # field path: (valid config holding a JSON integer there, function that
    # puts another value at that field)
    "params.budget": (
        {"task": "search", "model": {"kind": "lattice", "params": {"dim": 1}},
         "params": {"E": ["1"], "theta": "1/2", "strategy": "balls", "radius": "0", "budget": 5}},
        lambda c, v: c["params"].update(budget=v),
    ),
    "params.indices[0].n": (
        {"task": "perturb", "model": CIRCLE,
         "params": {"mode": "build", "indices": [{"E": ["0", "1/5"], "n": 4}], "radius": "1/10"}},
        lambda c, v: c["params"]["indices"][0].update(n=v),
    ),
    "params.window_resolution": (
        {"task": "paradox-verify", "model": F2_MODEL, "params": {"standard": True, "window_resolution": 1}},
        lambda c, v: c["params"].update(window_resolution=v),
    ),
    "params.sample_resolution": (
        {"task": "precompact", "model": CIRCLE, "params": {"radius": "1/10", "window_resolution": 8, "sample_resolution": 4}},
        lambda c, v: c["params"].update(sample_resolution=v),
    ),
    "params.max_pieces": (
        {"task": "paradox-search", "model": F2_MODEL, "params": {"pool": ["a", "b"], "window_resolution": 1, "max_pieces": 4}},
        lambda c, v: c["params"].update(max_pieces=v),
    ),
    "params.permutation[0]": (
        {"task": "perturb", "model": CIRCLE,
         "params": {"mode": "wobble", "window": ["0", "1/2"], "pool": ["1/2"], "permutation": [1, 0]}},
        lambda c, v: c["params"]["permutation"].__setitem__(0, v),
    ),
    "params.criteria[0]": (
        {"task": "suite", "params": {"criteria": [3]}},
        lambda c, v: c["params"]["criteria"].__setitem__(0, v),
    ),
    "seed": (
        {"task": "paradox-verify", "model": F2_MODEL, "params": {"standard": True, "window_resolution": 1}, "seed": 1},
        lambda c, v: c.update(seed=v),
    ),
}


def _with_value(field, value):
    base, put = INTEGER_FIELDS[field]
    config = json.loads(json.dumps(base))
    put(config, value)
    return config


# The probes that bare int() used to accept or crash on: true ran as 1,
# 12.9 as 12, "4" as 4, [1.0, 0] as [1, 0], and null raised a TypeError.
PROBES = [
    ("params.window_resolution", True),
    ("params.window_resolution", 12.9),
    ("params.max_pieces", "4"),
    ("params.permutation[0]", 1.0),
    ("params.max_pieces", None),
]


INTEGER_CASES = PROBES + [
    (field, bad)
    for field in INTEGER_FIELDS
    for bad in (False, 2.0, "3", None, [1])
    if (field, bad) not in PROBES
]


@pytest.mark.parametrize("field, value", INTEGER_CASES, ids=[f"{f}={v!r}" for f, v in INTEGER_CASES])
def test_integer_config_field_rejected(tmp_path, capsys, field, value):
    config = _with_value(field, value)
    with pytest.raises(ConfigError) as info:
        run_scenario_config(config)
    assert info.value.path == field
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    capsys.readouterr()
    assert run(["perturb", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: expected a JSON integer")
    assert "Traceback" not in err


@pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
def test_integer_config_field_accepted(tmp_path, field):
    base, _ = INTEGER_FIELDS[field]
    assert run_scenario_config(json.loads(json.dumps(base)), out_dir=tmp_path) in (0, 2)


@pytest.mark.parametrize("field", ["params.permutation", "params.criteria"])
def test_integer_list_config_field_must_be_a_list(field):
    base, _ = INTEGER_FIELDS[f"{field}[0]"]
    config = json.loads(json.dumps(base))
    config["params"][field.split(".")[1]] = 3
    with pytest.raises(ConfigError) as info:
        run_scenario_config(config)
    assert info.value.path == field


LATTICE_1 = {"kind": "lattice", "params": {"dim": 1}}
# One config per task that reads params.radius, each without it.
RADIUS_FREE = {
    "search": {"task": "search", "model": LATTICE_1,
               "params": {"E": ["1"], "theta": "1/2", "strategy": "balls"}},
    "perturb-build": {"task": "perturb", "model": CIRCLE,
                      "params": {"mode": "build", "indices": [{"E": ["0", "1/5"], "n": 4}]}},
    "perturb-verify": {"task": "perturb", "model": CIRCLE, "params": {"mode": "verify", "action": {}}},
    "precompact": {"task": "precompact", "model": CIRCLE, "params": {"window_resolution": 8}},
    "matching": {"task": "matching", "model": LATTICE_1, "params": {"E": ["0"], "F": ["1"]}},
    "defect": {"task": "defect", "model": LATTICE_1, "params": {"F": ["0"], "E": ["1"]}},
}


@pytest.mark.parametrize("task", sorted(RADIUS_FREE))
def test_missing_radius_is_a_config_error(task):
    with pytest.raises(ConfigError) as info:
        run_scenario_config(RADIUS_FREE[task])
    assert info.value.path == "params.radius"


def test_search_without_radius_exits_1(tmp_path, capsys):
    path = tmp_path / "search.json"
    path.write_text(json.dumps(RADIUS_FREE["search"]))
    assert run(["folner-search", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: params.radius: missing required field")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "config",
    [
        {"task": "perturb", "model": CIRCLE,
         "params": {"mode": "verify", "radius": "0",
                    "action": {"window": ["0", "1/2"], "pool": ["1/2"], "radius": "0"}}},
        {"task": "paradox-verify", "model": F2_MODEL,
         "params": {"standard": True, "window_resolution": 1,
                    "action": {"window": ["e", "a"], "pool": ["a"], "radius": "0"}}},
    ],
    ids=["perturb-verify", "paradox-verify"],
)
def test_action_without_rows_exits_1(tmp_path, capsys, config):
    with pytest.raises(ConfigError) as info:
        run_scenario_config(config)
    assert info.value.path == "params.action.rows"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    assert run(["perturb", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: params.action.rows: missing required field")


@pytest.mark.parametrize(
    "weights, field",
    [(["1"], "params.weight.weights"), (["1", "x"], "params.weight.weights[1]")],
)
def test_malformed_weight_exits_1(tmp_path, capsys, weights, field):
    config = {"task": "seminorm", "model": CIRCLE,
              "params": {"weight": {"support": ["0", "1/2"], "weights": weights}}}
    with pytest.raises(ConfigError) as info:
        run_scenario_config(config)
    assert info.value.path == field
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    assert run(["perturb", "--config", path]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {field}: ")
    assert "seminorm:" not in captured.out


# Element encodings that are not JSON strings, each at the field it must name.
NON_STRING_ENCODINGS = {
    "seminorm-lattice": (
        {"task": "seminorm", "model": LATTICE_1,
         "params": {"weight": {"support": [0, 1], "weights": ["1", "-1"]}}},
        "params.weight.support[0]",
    ),
    "seminorm-circle": (
        {"task": "seminorm", "model": CIRCLE,
         "params": {"weight": {"support": ["0", 1], "weights": ["1", "-1"]}}},
        "params.weight.support[1]",
    ),
    "defect-ints": (
        {"task": "defect", "model": LATTICE_1, "params": {"F": [0, 1], "E": ["1"], "radius": "0"}},
        "params.F[0]",
    ),
    "defect-null": (
        {"task": "defect", "model": LATTICE_1, "params": {"F": ["0", None], "E": ["1"], "radius": "0"}},
        "params.F[1]",
    ),
}


@pytest.mark.parametrize("case", sorted(NON_STRING_ENCODINGS))
def test_non_string_element_encoding_exits_1(tmp_path, capsys, case):
    config, field = NON_STRING_ENCODINGS[case]
    with pytest.raises(ConfigError) as info:
        run_scenario_config(config)
    assert info.value.path == field
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    assert run(["perturb", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: expected an element encoding (a JSON string)")
    assert "Traceback" not in err


GOOD_ACTION = {"window": ["0", "1/2"], "pool": ["1/2"], "rows": {"1/2": [1, 0]}, "radius": "1/2"}
# One malformed shape per action field: the traceback or the silent
# character-by-character read that each used to give.
ACTION_SHAPES = [
    ("rows", [[1, 0]]),
    ("rows", {"1/2": 5}),
    ("window", "0"),
    ("pool", 5),
    ("involution", [1]),
    ("folner_windows", "0"),
    ("folner_pools", [["0", 1]]),
]


@pytest.mark.parametrize("field, value", ACTION_SHAPES, ids=[f"{f}={v!r}" for f, v in ACTION_SHAPES])
def test_action_field_shape_exits_1(tmp_path, capsys, field, value):
    config = {"task": "perturb", "model": CIRCLE,
              "params": {"mode": "verify", "radius": "1/2", "action": {**GOOD_ACTION, field: value}}}
    want = f"params.action.{field}" + ("[0]" if field == "folner_pools" else "")
    with pytest.raises(ConfigError) as info:
        run_scenario_config(config)
    assert info.value.path == want
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    assert run(["perturb", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {want}: expected")
    assert "Traceback" not in err


# Følner certificate windows of the wrong shape: each used to end in a
# traceback or to be read one character at a time.
CERTIFICATE_WINDOW_SHAPES = [
    ({"F": [0, 1]}, "params.certificate.F", "expected a list of element strings"),
    ({"E": ["1", None]}, "params.certificate.E", "expected a list of element strings"),
    ({"F": "01", "E": "1"}, "params.certificate.E", "expected a list of element strings"),
    # matchings that are not an object used to end in an AttributeError
    ({"matchings": []}, "params.certificate.matchings", "expected an object"),
    ({"matchings": "x"}, "params.certificate.matchings", "expected an object"),
]


@pytest.mark.parametrize(
    "fields, want, message", CERTIFICATE_WINDOW_SHAPES, ids=[repr(f) for f, _, _ in CERTIFICATE_WINDOW_SHAPES]
)
def test_certificate_window_shape_exits_1(tmp_path, capsys, fields, want, message):
    produce = {"task": "defect", "model": LATTICE_1, "params": {"F": ["0", "1"], "E": ["1"], "radius": "0"}}
    assert run_scenario_config(produce, out_dir=tmp_path / "cert") == 0
    cert = json.loads((tmp_path / "cert" / "certificate.json").read_text())
    config = {"task": "defect", "params": {"certificate": {**cert, **fields}}}
    with pytest.raises(ConfigError) as info:
        run_scenario_config(config)
    assert info.value.path == want
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    assert run(["perturb", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {want}: {message}")
    assert "Traceback" not in err


def test_paradox_classifier_error_names_piece(tmp_path, capsys):
    # residue needs integer coordinates, which the circle does not have: the
    # certificate is refused at load, naming the op of the piece that holds
    # it, even where the window's only point is 0
    residue = {"op": "residue", "index": 0, "mod": 2, "value": 0}
    certificate = {"form": "tarski", "g": [[]], "h": [[]], "A": [residue], "B": [{"op": "true"}]}
    want = "params.certificate.A[0].op"
    for points in (["0", "1/2"], ["0"]):
        config = {"task": "paradox-verify", "model": CIRCLE, "params": {"certificate": certificate, "window": points}}
        with pytest.raises(ConfigError) as info:
            run_scenario_config(config)
        assert info.value.path == want
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    assert run(["perturb", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {want}: residue needs integer coordinates\n"


def _not_chain(depth: int) -> str:
    """The JSON text of `depth` nested classifier nodes: `not`s around one
    `true`, written out by hand, since the stdlib encoder recurses too."""
    return '{"op": "not", "arg": ' * (depth - 1) + '{"op": "true"}' + "}" * (depth - 1)


def _chain_certificate(depth: int) -> str:
    return '{"form": "tarski", "g": [[]], "h": [["a"]], "A": [' + _not_chain(depth) + '], "B": [{"op": "true"}]}'


def test_paradox_classifier_depth_cap(tmp_path, capsys):
    # a tree at the cap verifies and writes; one level more exits 1 naming
    # the first node past the cap; a chain of 900 used to end in Python's
    # recursion limit with no field path
    cap = CLASSIFIER_DEPTH_CAP
    cert = tmp_path / "cap.json"
    cert.write_text(_chain_certificate(cap))
    out = tmp_path / "out"
    assert run(["paradox", "verify", "--kind", "free", "--rank", "2", "--cert", cert, "--out-dir", out]) in (0, 2)
    assert json.loads((out / "certificate.json").read_text()) == json.loads(cert.read_text())
    capsys.readouterr()
    for depth in (cap + 1, 900):
        cert.write_text(_chain_certificate(depth))
        config = tmp_path / "deep.json"
        config.write_text('{"task": "paradox-verify", "model": {"kind": "free", "params": {"rank": 2}}, '
                          '"params": {"certificate": ' + cert.read_text() + "}}")
        for args in (["--kind", "free", "--rank", "2", "--cert", cert], ["--config", config]):
            assert run(["paradox", "verify", *args]) == 1
            err = capsys.readouterr().err
            assert err == f"error: params.certificate.A[0]{'.arg' * cap}: classifier nested deeper than {cap} levels\n"


def test_json_nested_past_the_decoder_names_its_source(tmp_path, capsys):
    # 5,000 levels of nesting exhaust the JSON decoder's recursion: the
    # error names the flag or the config the file came from
    cert = tmp_path / "deep.json"
    cert.write_text(_chain_certificate(5000))
    assert run(["paradox", "verify", "--kind", "free", "--rank", "2", "--cert", cert]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --cert: maximum recursion depth exceeded") and err.count("\n") == 1
    config = tmp_path / "config.json"
    config.write_text('{"task": "paradox-verify", "params": {"certificate": ' + cert.read_text() + "}}")
    assert run(["paradox", "verify", "--config", config]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config is not valid JSON: maximum recursion depth exceeded") and err.count("\n") == 1


def test_heisenberg_seminorm_past_word_length_40(tmp_path, capsys):
    # d((0,0,399), e) = 2*ceil(2*sqrt(399)) = 80, so the seminorm is the box
    # bound 2; this used to end in a word length search capped at radius 40.
    config = {"task": "seminorm", "model": {"kind": "heisenberg"},
              "params": {"weight": {"support": ["0,0,0", "0,0,399"], "weights": ["1", "-1"]}}}
    path = tmp_path / "far.json"
    path.write_text(json.dumps(config))
    assert run(["perturb", "--config", path]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("seminorm: 2 (")
    assert captured.err == ""


STANDARD_CERTIFICATE = f2_standard_certificate(make_model("free", rank=2)).to_json()
# The standard certificate with its third piece moved onto words starting
# with a: the two B-translates no longer tile the window.
FORGED_CERTIFICATE = {**STANDARD_CERTIFICATE,
                      "B": [{"op": "first_letter", "letter": "a"}, STANDARD_CERTIFICATE["B"][1]]}


def test_forged_paradox_certificate_is_not_replaced_by_the_standard_one(tmp_path, capsys):
    base = {"task": "paradox-verify", "model": F2_MODEL,
            "params": {"certificate": FORGED_CERTIFICATE, "window_resolution": 2}}
    assert run_scenario_config(base) == 2
    capsys.readouterr()
    for standard in ("false", True):
        config = json.loads(json.dumps(base))
        config["params"]["standard"] = standard
        path = tmp_path / "forged.json"
        path.write_text(json.dumps(config))
        assert run(["perturb", "--config", path]) == 1
        captured = capsys.readouterr()
        want = ("expected a JSON boolean, got 'false'" if standard == "false"
                else "give a certificate or standard: true, not both")
        assert captured.err == f"error: params.standard: {want}\n"
        assert "paradox verify:" not in captured.out


SEARCH = {"task": "search", "model": LATTICE_1,
          "params": {"E": ["1"], "theta": "1/2", "strategy": "balls", "radius": "0"}}
DEFECT = {"task": "defect", "model": LATTICE_1, "params": {"F": ["0", "1"], "E": ["1"], "radius": "0"}}
PARADOX_SEARCH = {"task": "paradox-search", "model": F2_MODEL,
                  "params": {"pool": ["a", "b"], "window_resolution": 1, "max_pieces": 4}}
STANDARD_VERIFY = {"task": "paradox-verify", "model": F2_MODEL, "params": {"standard": True, "window_resolution": 1}}
BUILD = {"task": "perturb", "model": CIRCLE,
         "params": {"mode": "build", "indices": [{"E": ["0", "1/5"], "n": 4}], "radius": "1/10"}}
SUITE = {"task": "suite", "params": {}}
DISCRETE = {"task": "defect", "model": LATTICE_1, "params": {"F": ["0", "1"], "E": ["1"], "mode": "discrete"}}
SEMINORM = {"task": "seminorm", "model": LATTICE_1, "params": {"weight": {"support": ["0", "1"], "weights": ["1", "-1"]}}}
F2_SEMINORM = {"task": "seminorm", "model": F2_MODEL, "params": {"weight": {"support": ["a", "b"], "weights": ["1", "-1"]}}}
CIRCLE_SEMINORM = {"task": "seminorm", "model": CIRCLE, "params": {"weight": {"support": ["0", "1/2"], "weights": ["1", "-1"]}}}
HEISENBERG_DEFECT = {"task": "defect", "model": {"kind": "heisenberg"},
                     "params": {"F": ["0,0,0", "1,0,0"], "E": ["1,0,0"], "radius": "1"}}
VERIFY = {"task": "perturb", "model": CIRCLE, "params": {"mode": "verify", "radius": "1/2", "action": GOOD_ACTION}}
WOBBLE = {"task": "perturb", "model": CIRCLE,
          "params": {"mode": "wobble", "window": ["0", "1/2"], "pool": ["1/2"], "permutation": [1, 0]}}
PERTURB_PRECOMPACT = {"task": "perturb", "model": CIRCLE, "params": {"mode": "precompact", "radius": "1/10",
                                                                     "window_resolution": 8, "sample_resolution": 4}}
# Config values that exit 1 and the field each must name: (base config,
# params to put in, field, start of the message).
FIELD_ERRORS = {
    "window_resolution=0": (STANDARD_VERIFY, {"window_resolution": 0}, "params.window_resolution",
                            "resolution must be >= 1"),
    "sample_resolution=0": ({"task": "precompact", "model": CIRCLE, "params": {"radius": "1/10"}},
                            {"sample_resolution": 0}, "params.sample_resolution", "resolution must be >= 1"),
    "budget=0": (SEARCH, {"budget": 0}, "params.budget", "budget must be positive"),
    "strategy": (SEARCH, {"strategy": "spiral"}, "params.strategy", "unknown strategy 'spiral'"),
    "standard-on-lattice": ({**STANDARD_VERIFY, "model": LATTICE_1}, {}, "params.standard",
                            "the standard certificate lives on the rank-2 free group"),
    "defect-crosscheck='false'": (DEFECT, {"crosscheck": "false"}, "params.crosscheck", "expected a JSON boolean"),
    "search-crosscheck=1": (SEARCH, {"crosscheck": 1}, "params.crosscheck", "expected a JSON boolean"),
    "max_pieces=3": (PARADOX_SEARCH, {"max_pieces": 3}, "params.max_pieces", "must be at least 4"),
    # an empty pool tries no combination, so it is no finished search
    "paradox-search-pool-empty": (PARADOX_SEARCH, {"pool": []}, "params.pool", "search of an empty pool"),
    # a huge dim used to end in a MemoryError traceback building the identity
    "lattice-dim-huge": ({**DEFECT, "model": {"kind": "lattice", "params": {"dim": 10**9}}}, {},
                         "model.params.dim", "lattice dimension must be between 1 and 223"),
    # an empty window has no checkable target, so every combo scores zero
    "paradox-search-window-empty": (PARADOX_SEARCH, {"window": []}, "params.window", "search of an empty window"),
    # action entries that do not parse used to be named only as `params.action`
    "action-radius='zz'": (VERIFY, {"action": {**GOOD_ACTION, "radius": "zz"}}, "params.action.radius",
                           "Invalid literal for Fraction: 'zz'"),
    "action-radius=true": (VERIFY, {"action": {**GOOD_ACTION, "radius": True}}, "params.action.radius",
                           "not an exact rational: True"),
    "action-row-key": (VERIFY, {"action": {**GOOD_ACTION, "rows": {"zz": [1, 0]}}}, "params.action.rows[zz]",
                       "Invalid literal for Fraction: 'zz'"),
    "action-row-entry": (VERIFY, {"action": {**GOOD_ACTION, "rows": {"1/2": [1.0, 0]}}}, "params.action.rows",
                         "row of 1/2: expected a JSON integer, got 1.0"),
    "action-involution-key": (VERIFY, {"action": {**GOOD_ACTION, "involution": {"zz": True}}},
                              "params.action.involution[zz]", "Invalid literal for Fraction: 'zz'"),
    "action-involution=0": (VERIFY, {"action": {**GOOD_ACTION, "involution": {"1/2": 0}}},
                            "params.action.involution[1/2]", "expected a JSON boolean, got 0"),
    # a true flag on a row whose correction has order 4 used to verify with exit 0
    "action-involution-order-4": (VERIFY, {"action": {"window": ["0", "1/4", "1/2", "3/4"], "pool": ["1/4"],
                                                      "rows": {"1/4": [2, 3, 0, 1]}, "radius": "1/2",
                                                      "involution": {"1/4": True}}},
                                  "params.action.involution[1/4]", "psi(g) does not square to the identity at 0"),
    # a table with no row for its pool used to verify with exit 0 and ratio 1
    "action-pool-without-row": (VERIFY, {"action": {"window": ["0", "1/4", "1/2", "3/4"], "pool": ["1/2"],
                                                    "rows": {"1/4": [1, 2, 3, 0]}, "radius": "1/2",
                                                    "folner_windows": [["0"]], "folner_pools": [["1/2"]]}},
                                "params.action.pool", "1/2 has no row"),
    "max_pieces=-2": (PARADOX_SEARCH, {"max_pieces": -2}, "params.max_pieces", "must be at least 4"),
    "paradox-budget=0": (PARADOX_SEARCH, {"budget": 0}, "params.budget", "budget must be positive"),
    "paradox-budget=-5": (PARADOX_SEARCH, {"budget": -5}, "params.budget", "budget must be positive"),
    "build-budget=0": (BUILD, {"budget": 0}, "params.budget", "budget must be positive"),
    "build-n=0": (BUILD, {"indices": [{"E": ["0", "1/5"], "n": 0}]}, "params.indices[0].n",
                  "index multiplicities start at 2"),
    "build-n=1-second-index": (BUILD, {"indices": [{"E": ["0", "1/5"], "n": 4}, {"E": ["0", "1/3"], "n": 1}]},
                               "params.indices[1].n", "index multiplicities start at 2"),
    "boxes-on-free": ({**SEARCH, "model": F2_MODEL}, {"E": ["a"], "strategy": "boxes"}, "params.strategy",
                      "boxes strategy requires a lattice model"),
    "boxes-on-circle": ({**SEARCH, "model": CIRCLE}, {"E": ["1/2"], "strategy": "boxes"}, "params.strategy",
                        "boxes strategy requires a lattice model"),
    "grid-on-Z2": ({**SEARCH, "model": {"kind": "lattice", "params": {"dim": 2}}}, {"E": ["1,0"], "strategy": "grid"},
                   "params.strategy", "grid strategy requires circle or torus"),
    # unknown criterion numbers used to run nothing and exit 0
    "criteria=99": (SUITE, {"criteria": [99]}, "params.criteria[0]", "unknown criterion 99"),
    "criteria=0-second": (SUITE, {"criteria": [1, 0]}, "params.criteria[1]", "unknown criterion 0"),
    "criteria-and-scenarios": (SUITE, {"criteria": [1], "scenarios": "."}, "params.criteria",
                               "give criteria or scenarios, not both"),
    # each of these used to end in a traceback or a bare message, or to exit 0
    "scenarios=5": (SUITE, {"scenarios": 5}, "params.scenarios", "expected a file system path (a JSON string)"),
    "seminorm-E-non-stochastic": (SEMINORM, {"E": ["1"]}, "params.weight",
                                  "invariance defect is defined for stochastic weights"),
    "build-indices-object": (BUILD, {"indices": {"E": ["0", "1/5"], "n": 4}}, "params.indices",
                             "expected a list of {E, n} objects"),
    "build-indices=5": (BUILD, {"indices": 5}, "params.indices", "expected a list of {E, n} objects"),
    "build-E-without-identity": (BUILD, {"indices": [{"E": ["1/5"], "n": 4}]}, "params.indices[0].E",
                                 "every index pool must contain the identity"),
    "build-second-E-without-identity": (BUILD, {"indices": [{"E": ["0", "1/5"], "n": 4}, {"E": [], "n": 2}]},
                                        "params.indices[1].E", "every index pool must contain the identity"),
    "discrete-radius": (DISCRETE, {"radius": "0"}, "params.radius", "not read in discrete mode"),
    "discrete-metric": (DISCRETE, {"metric": {"rule": "word"}}, "params.metric", "not read in discrete mode"),
    "seminorm-radius": (SEMINORM, {"radius": "zz"}, "params.radius", "unknown field (strict schema)"),
    # a metric rule the model does not carry: the arc rule on a discrete
    # model used to give nonsense distances with exit 0 (seminorm 0 for
    # delta_a - delta_b on F_2), and the word rule on the circle an error
    # without a field
    "seminorm-arc-on-free": (F2_SEMINORM, {"metric": {"rule": "arc"}}, "params.metric.rule", "free has no arc metric"),
    "seminorm-arc-on-lattice": (SEMINORM, {"metric": {"rule": "arc"}}, "params.metric.rule",
                                "lattice has no arc metric"),
    "defect-arc-on-lattice": (DEFECT, {"metric": {"rule": "arc"}}, "params.metric.rule", "lattice has no arc metric"),
    "defect-scaled-arc-on-heisenberg": (HEISENBERG_DEFECT, {"metric": {"rule": "scaled", "factor": "2",
                                                                       "base": {"rule": "arc"}}},
                                        "params.metric.base.rule", "heisenberg has no arc metric"),
    "seminorm-word-on-circle": (CIRCLE_SEMINORM, {"metric": {"rule": "word"}}, "params.metric.rule",
                                "circle has no word metric"),
    # a support past the seminorm cap used to exit 1 without a field
    "seminorm-support-201": (SEMINORM, {"weight": {"support": [str(k) for k in range(201)], "weights": ["1"] * 201}},
                             "params.weight.support", "support 201 exceeds cap 200"),
    "invariance-difference-past-cap": (SEMINORM, {"weight": {"support": [str(k) for k in range(150)],
                                                             "weights": ["1/150"] * 150}, "E": ["1000"]},
                                       "params.weight", "a - g.a: support 300 exceeds cap 200"),
    # JSON booleans used to be read as the rationals 1 and 0, with exit 0
    "weights-true": (SEMINORM, {"weight": {"support": ["0", "1"], "weights": [True, "-1"]}},
                     "params.weight.weights[0]", "not an exact rational: True"),
    "defect-radius-true": (DEFECT, {"radius": True}, "params.radius", "not an exact rational: True"),
    "search-radius-true": (SEARCH, {"radius": True}, "params.radius", "not an exact rational: True"),
    # these used to exit 1 without a field path
    "defect-F-empty": (DEFECT, {"F": []}, "params.F", "defect of an empty window"),
    "discrete-F-empty": (DISCRETE, {"F": []}, "params.F", "defect of an empty window"),
    "defect-radius=-1": (DEFECT, {"radius": -1}, "params.radius", "entourage radius must be >= 0"),
    "search-radius=-1": (SEARCH, {"radius": "-1"}, "params.radius", "entourage radius must be >= 0"),
    "build-radius=-1": (BUILD, {"radius": "-1/10"}, "params.radius", "entourage radius must be >= 0"),
    "build-indices-empty": (BUILD, {"indices": []}, "params.indices", "index family must be non-empty"),
    "wobble-not-a-permutation": (WOBBLE, {"permutation": [0, 0]}, "params.permutation",
                                 "not a permutation of the window"),
    # a field that the chosen mode does not read used to be accepted and ignored, with exit 0
    "precompact-mode-permutation": (PERTURB_PRECOMPACT, {"permutation": "zz"}, "params.permutation",
                                    "not read in precompact mode"),
    "precompact-mode-indices": (PERTURB_PRECOMPACT, {"indices": 5}, "params.indices", "not read in precompact mode"),
    "precompact-mode-action": (PERTURB_PRECOMPACT, {"action": 7}, "params.action", "not read in precompact mode"),
    "pairwise-crosscheck": (DEFECT, {"mode": "pairwise", "crosscheck": True}, "params.crosscheck",
                            "not read in pairwise mode"),
    "window-and-resolution": (PARADOX_SEARCH, {"window": ["e", "a"]}, "params.window_resolution",
                              "not read when the window is given"),
    "metric-null": (DEFECT, {"metric": None}, "params.metric", "expected an object"),
    # a build that admits no package, and an empty Følner window in an action (a ZeroDivisionError traceback)
    "build-radius=0": (BUILD, {"radius": "0"}, "params", "conjugation slack consumed the entourage"),
    "build-budget=2": (BUILD, {"budget": 2}, "params", "no window reached boosted parameter"),
    "action-folner-window-empty": (VERIFY, {"action": {**GOOD_ACTION, "folner_windows": [[]]}},
                                   "params.action.folner_windows[0]", "expected a non-empty window"),
    # a zero denominator used to be reported as Python's repr, `Fraction(1, 0)`
    "radius=1/0": (DEFECT, {"radius": "1/0"}, "params.radius", "zero denominator in '1/0'"),
    "theta=1/0": (SEARCH, {"theta": "1/0"}, "params.theta", "zero denominator in '1/0'"),
    "weights-1/0": (SEMINORM, {"weight": {"support": ["0", "1"], "weights": ["1/0", "-1"]}},
                    "params.weight.weights[0]", "zero denominator in '1/0'"),
    "metric-factor=1/0": (DEFECT, {"metric": {"rule": "scaled", "factor": "1/0", "base": {"rule": "word"}}},
                          "params.metric.factor", "zero denominator in '1/0'"),
    # an action's negative radius used to verify with exit 0
    "action-radius=-1": (VERIFY, {"action": {**GOOD_ACTION, "radius": "-1"}}, "params.action.radius",
                         "entourage radius must be >= 0"),
    # row tables that are not one used to be named only as `params.action`
    "action-row-not-injective": (VERIFY, {"action": {**GOOD_ACTION, "rows": {"1/2": [0, 0]}}}, "params.action.rows",
                                 "row of 1/2 not injective"),
    "action-row-index-out-of-range": (VERIFY, {"action": {**GOOD_ACTION, "rows": {"1/2": [2, 0]}}},
                                      "params.action.rows", "row of 1/2 has an index outside 0 <= j < 2"),
    "action-row-short": (VERIFY, {"action": {**GOOD_ACTION, "rows": {"1/2": [1]}}}, "params.action.rows",
                         "row of 1/2 has length 1, expected 2"),
    # a second key encoding the same element used to hide the first one's entry, with exit 0
    "action-row-key-repeated": (VERIFY, {"action": {**GOOD_ACTION, "rows": {"1/2": [0, 0], "2/4": [1, 0]}}},
                                "params.action.rows[2/4]", "repeats an element"),
    "action-involution-key-repeated": (VERIFY, {"action": {**GOOD_ACTION, "involution": {"1/2": True, "2/4": False}}},
                                       "params.action.involution[2/4]", "repeats an element"),
    # the radius-0 crosscheck of a dense metric used to exit 1 with no field path
    "crosscheck-radius-0-arc": ({"task": "defect", "model": CIRCLE,
                                 "params": {"F": ["0", "1/2"], "E": ["1/2"], "radius": "0"}},
                                {"crosscheck": True}, "params.crosscheck",
                                "radius-0 entourage of a dense metric has no ball form at 1/2"),
    # an unknown field in a paradox certificate used to be ignored, with exit 0
    "paradox-certificate-unknown-field": ({**STANDARD_VERIFY, "params": {"window_resolution": 1}},
                                          {"certificate": {**STANDARD_CERTIFICATE, "notes": "x"}},
                                          "params.certificate.notes", "unknown field (strict schema)"),
}


@pytest.mark.parametrize("case", sorted(FIELD_ERRORS))
def test_config_error_names_its_field(tmp_path, capsys, case):
    base, extra, field, message = FIELD_ERRORS[case]
    config = json.loads(json.dumps(base))
    config["params"].update(extra)
    with pytest.raises(ConfigError) as info:
        run_scenario_config(config)
    assert info.value.path == field
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    capsys.readouterr()
    assert run(["perturb", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: {message}")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "config, field",
    [
        ({**DISCRETE, "out_dir": 5}, "out_dir"),
        ({**DISCRETE, "model": {"kind": "lattice", "params": [1]}}, "model.params"),
        ({**DISCRETE, "model": {"kind": "lattice", "params": 5}}, "model.params"),
        ({**SUITE, "out_dir": ["out"]}, "out_dir"),
    ],
)
def test_non_object_or_non_string_scenario_field_names_its_path(tmp_path, capsys, config, field):
    with pytest.raises(ConfigError) as info:
        run_scenario_config(config)
    assert info.value.path == field
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    assert run(["suite", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: expected ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "model, field, message",
    [
        # `dim: null` used to end in a TypeError traceback, and an unknown
        # key used to be ignored with exit 0
        ({"kind": "lattice", "params": {"dim": None}}, "model.params.dim", "expected an integer, got None"),
        ({"kind": "lattice", "params": {"dim": 1, "foo": 1}}, "model.params.foo", "not a parameter of a lattice model"),
        ({"kind": "lattice", "params": {"dim": True}}, "model.params.dim", "expected an integer, got True"),
        ({"kind": "lattice", "params": {"dim": 1.5}}, "model.params.dim", "expected an integer, got 1.5"),
        ({"kind": "lattice", "params": {"dim": "one"}}, "model.params.dim", "expected an integer, got 'one'"),
        ({"kind": "free", "params": {"dim": 2}}, "model.params.dim", "not a parameter of a free model"),
        ({"kind": "heisenberg", "params": {"rank": 2}}, "model.params.rank", "not a parameter of a heisenberg model"),
    ],
)
def test_model_param_errors_name_their_field(tmp_path, capsys, model, field, message):
    config = {**DISCRETE, "model": model}
    with pytest.raises(ConfigError) as info:
        run_scenario_config(config)
    assert info.value.path == field
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    assert run(["folner-defect", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {field}: {message}\n"


def test_certificate_model_param_error_names_its_field(tmp_path):
    assert run_scenario_config(DEFECT, out_dir=tmp_path / "cert") == 0
    cert = json.loads((tmp_path / "cert" / "certificate.json").read_text())
    cert["model"]["params"]["dim"] = None
    with pytest.raises(ConfigError) as info:
        run_scenario_config({"task": "defect", "params": {"certificate": cert}})
    assert info.value.path == "params.certificate.model.params.dim"


@pytest.mark.parametrize("metric", [{"rule": "arc"}, {"rule": "scaled", "factor": "1/2", "base": {"rule": "arc"}}])
def test_certificate_entourage_metric_error_names_its_field(tmp_path, capsys, metric):
    # an arc metric on the integers used to be read, and verified, as one
    assert run_scenario_config(DEFECT, out_dir=tmp_path / "cert") == 0
    cert = json.loads((tmp_path / "cert" / "certificate.json").read_text())
    cert["U"]["metric"] = metric
    want = "params.certificate.U.metric." + ("rule" if metric["rule"] == "arc" else "base.rule")
    with pytest.raises(ConfigError) as info:
        run_scenario_config({"task": "defect", "params": {"certificate": cert}})
    assert info.value.path == want
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cert))
    capsys.readouterr()
    assert run(["folner-defect", "--verify-cert", path]) == 1
    assert capsys.readouterr().err == f"error: {want}: lattice has no arc metric\n"


def test_defect_certificate_with_a_dropped_pair_is_rejected(tmp_path, capsys):
    # A well-formed certificate whose stored matching is one pair short of
    # maximum, with mu lowered to match: no witness can close the Hall
    # identity, so verification rejects it (exit 2, as for any invalid
    # certificate; a malformed file is exit 1).
    config = {"task": "defect", "model": {"kind": "lattice", "params": {"dim": 2}},
              "params": {"F": [f"{i},{j}" for i in range(3) for j in range(2)], "E": ["1,0", "0,1"],
                         "radius": "0"}}
    assert run_scenario_config(config, out_dir=tmp_path / "cert") == 0
    cert = json.loads((tmp_path / "cert" / "certificate.json").read_text())
    entry = cert["matchings"]["1,0"]
    entry["pairing"].pop()
    entry["mu"] -= 1
    path = tmp_path / "short.json"
    path.write_text(json.dumps(cert))
    capsys.readouterr()
    assert run(["folner-defect", "--verify-cert", path]) == 2
    assert capsys.readouterr().out == "certificate INVALID: Hall identity violated by the stored witness\n"


def test_discrete_defect_flags_without_radius(tmp_path, capsys):
    args = ["folner-defect", "--kind", "lattice", "--dim", "1", "--F", "0;1", "--E", "1", "--mode", "discrete"]
    assert run(args + ["--out-dir", tmp_path]) == 0
    assert capsys.readouterr().out == "discrete defect: 1/2\n"
    assert run(args + ["--radius", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --radius: not read in discrete mode\n"
    assert captured.out == ""


def test_certificate_defect_crosscheck_must_be_a_boolean(tmp_path, capsys):
    assert run_scenario_config(DEFECT, out_dir=tmp_path / "cert") == 0
    cert = json.loads((tmp_path / "cert" / "certificate.json").read_text())
    config = {"task": "defect", "params": {"certificate": cert, "crosscheck": "yes"}}
    with pytest.raises(ConfigError) as info:
        run_scenario_config(config)
    assert info.value.path == "params.crosscheck"


def test_search_past_the_window_cap_exits_2_with_its_best_window(tmp_path, capsys):
    # the sixth ball of F_4 holds 156,865 words, past the 100,000 cap: the
    # search used to exit 1 with no field path and no report
    args = ["folner-search", "--kind", "free", "--rank", "4", "--E", "a", "--radius", "0", "--theta", "1",
            "--budget", "50", "--out-dir", tmp_path]
    assert run(args) == 2
    assert "tried=5 budget_exhausted=False" in capsys.readouterr().out
    result = json.loads((tmp_path / "certificate.json").read_text())
    assert (result["found"], result["budget_exhausted"], result["candidates_tried"]) == (False, False, 5)
    assert len(result["certificate"]["F"]) == 22409


def test_budget_flag_below_one_names_the_flag(capsys):
    assert run(["folner-search", "--kind", "lattice", "--dim", "1", "--E", "1", "--radius", "0",
                "--theta", "1/2", "--budget", "-1"]) == 1
    assert capsys.readouterr().err.startswith("error: --budget: budget must be positive")


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_paradox_search_budget_flag_below_one_names_the_flag(tmp_path, capsys, budget):
    assert run(["paradox", "search", "--kind", "free", "--rank", "2", "--window-resolution", "1",
                "--pool=a;b", "--max-pieces", "4", f"--budget={budget}", "--out-dir", tmp_path]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --budget: budget must be positive")
    assert "best_defect" not in captured.out
    assert not (tmp_path / "report.json").exists()


def test_budget_flag_below_one_names_the_flag_with_a_config(tmp_path, capsys):
    path = tmp_path / "search.json"
    path.write_text(json.dumps(SEARCH))
    assert run(["folner-search", "--config", path, "--budget", "0"]) == 1
    assert capsys.readouterr().err.startswith("error: --budget: budget must be positive")


# --budget used to be written into params, where verify's strict schema named
# `params.budget: unknown field`, a field the command line never wrote.
def test_budget_flag_a_mode_does_not_read_is_named(capsys):
    assert run(["paradox", "verify", "--kind", "free", "--rank", "2", "--standard", "--budget", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --budget: not read in standard mode\n"
    assert captured.out == ""


def test_budget_flag_a_mode_does_not_read_is_named_with_a_config(tmp_path, capsys):
    path = tmp_path / "verify.json"
    path.write_text(json.dumps({"task": "paradox-verify", "model": {"kind": "free", "params": {"rank": 2}},
                                "params": {"standard": True}}))
    assert run(["paradox", "verify", "--config", path, "--budget", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --budget: not read in standard mode\n"
    assert captured.out == ""


# Z with E = {1} never reaches theta 1: every ball loses its right end.
UNREACHABLE_SEARCH = {"task": "search", "model": LATTICE_1, "seed": 11,
                      "params": {"E": ["1"], "theta": "1", "strategy": "balls", "radius": "0", "budget": 9}}


@pytest.mark.parametrize(
    "args, config, artifact, field",
    [
        (["folner-search"], UNREACHABLE_SEARCH, "certificate.json", "candidates_tried"),
        (["paradox", "search"], PARADOX_SEARCH, "report.json", "budget"),
    ],
    ids=["folner-search", "paradox-search"],
)
def test_seed_and_budget_flags_reach_a_config_scenario(tmp_path, monkeypatch, args, config, artifact, field):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config))
    seen = []
    original = cli.run_scenario_config

    def recording(scenario, out_dir=None):
        seen.append(json.loads(json.dumps(scenario)))
        return original(scenario, out_dir=out_dir)

    monkeypatch.setattr(cli, "run_scenario_config", recording)
    seed = ["--seed", "3"] if args == ["folner-search"] else []
    assert run(args + ["--config", path, "--budget", "2", "--out-dir", tmp_path / "out"] + seed) in (0, 2)
    assert seen[0]["params"]["budget"] == 2
    assert seen[0].get("seed") == (3 if seed else config.get("seed"))
    assert json.loads((tmp_path / "out" / artifact).read_text())[field] == 2


def _readme_examples():
    """The direct-computation examples of the README, one argv each."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("Direct computations", 1)[1].split("```")[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("folnerlab ")]


README_EXAMPLES = [argv for argv in _readme_examples() if argv[0] != "model"]
RUN_FLAGS = ("--seed", "--budget")


def _subcommand(argv):
    return [a for a in argv[:2] if not a.startswith("-")]


def test_readme_has_an_example_per_flag_built_scenario():
    assert {" ".join(_subcommand(argv)) for argv in README_EXAMPLES} == {
        "matching", "folner-defect", "folner-search", "seminorm", "precompact", "paradox verify", "paradox search",
    }


@pytest.mark.parametrize("argv", README_EXAMPLES, ids=[" ".join(_subcommand(a)) for a in README_EXAMPLES])
def test_readme_example_runs_the_same_from_its_config(tmp_path, monkeypatch, capsys, argv):
    # the flag form and --config with the scenario its flags build give the
    # same exit code, stdout and artifacts (the manifest holds the wall time)
    monkeypatch.chdir(tmp_path)
    Path("w.json").write_text(json.dumps({"support": ["0", "2/5"], "weights": ["1", "-1"]}))
    code = main(argv + ["--out-dir", "flags"])
    out = capsys.readouterr().out
    Path("scenario.json").write_text(json.dumps(_config_from_flags(_parser().parse_args(argv))))
    head = _subcommand(argv)
    run_flags = [a for k, a in enumerate(argv) if a in RUN_FLAGS or (k and argv[k - 1] in RUN_FLAGS)]
    assert main(head + ["--config", "scenario.json", "--out-dir", "config"] + run_flags) == code
    assert capsys.readouterr().out == out
    written = sorted(p.name for p in Path("flags").iterdir() if p.name != "manifest.json")
    assert written == sorted(p.name for p in Path("config").iterdir() if p.name != "manifest.json")
    for name in written:
        assert (Path("flags") / name).read_bytes() == (Path("config") / name).read_bytes()


# Whole scenarios that exit 1 and the field each must name: each used to end
# in a traceback, to exit 1 without a field path, or to exit 0.
SCENARIO_ERRORS = {
    "model-kind-object": ({**DISCRETE, "model": {"kind": {}}}, "model.kind", "unknown model kind {}"),
    "model-kind-list": ({**DISCRETE, "model": {"kind": []}}, "model.kind", "unknown model kind []"),
    "model-generators": ({**DISCRETE, "model": {**LATTICE_1, "generators": 1.5}}, "model.generators",
                         "differs from the model's own"),
    "params-true": ({**DEFECT, "params": True}, "params", "expected an object"),
    "task-missing": ({"model": LATTICE_1, "params": {}}, "task", "missing required field"),
    "suite-model": ({**SUITE, "model": LATTICE_1}, "model", "unknown field"),
}


@pytest.mark.parametrize("case", sorted(SCENARIO_ERRORS))
def test_scenario_error_names_its_field(tmp_path, capsys, case):
    config, field, message = SCENARIO_ERRORS[case]
    with pytest.raises(ConfigError) as info:
        run_scenario_config(json.loads(json.dumps(config)))
    assert info.value.path == field
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    assert run(["perturb", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: {message}")
    assert "Traceback" not in err


def _field(obj, keys):
    """The object holding the field at the end of `keys`."""
    for key in keys[:-1]:
        obj = obj[key]
    return obj


def _drop(*keys):
    return lambda cert: _field(cert, keys).pop(keys[-1])


def _set(value, *keys):
    return lambda cert: _field(cert, keys).__setitem__(keys[-1], value)


# A Følner certificate of the DEFECT scenario (matchings keyed "1"), each
# mutated once: every malformed field must be named under params.certificate.
CERTIFICATE_ERRORS = {
    # a traceback, and a model whose junk descriptor fields were ignored with exit 0
    "model-params": (_set("zz", "model", "params"), "model.params", "expected an object"),
    "model-generators": (_set(1.5, "model", "generators"), "model.generators", "differs from the model's own"),
    "model-metric": (_set("zz", "model", "metric"), "model.metric", "differs from the model's own"),
    # each used to be a bare "malformed certificate" at params.certificate
    "pairing-missing": (_drop("matchings", "1", "pairing"), "matchings['1'].pairing", "missing required field"),
    "mu-missing": (_drop("matchings", "1", "mu"), "matchings['1'].mu", "missing required field"),
    "witness-missing": (_drop("matchings", "1", "witness"), "matchings['1'].witness", "missing required field"),
    "theta-missing": (_drop("theta"), "theta", "missing required field"),
    "pair-malformed": (_set([[0]], "matchings", "1", "pairing"), "matchings['1'].pairing",
                       "expected a list of [i, j] pairs"),
    "key-repeated": (lambda cert: cert["matchings"].update({"01": cert["matchings"]["1"]}), "matchings['01']",
                     "repeats an element"),
    # each used to load as the shorter window and verify with exit 0
    "window-repeated": (lambda cert: cert["F"].append("1"), "F[2]", "repeats an element"),
    "window-respelled": (lambda cert: cert["F"].insert(1, "+0"), "F[1]", "repeats an element"),
    "pool-respelled": (lambda cert: cert["E"].append(" 1"), "E[1]", "repeats an element"),
    "radius-negative": (_set("-1", "U", "radius"), "U.radius", "entourage radius must be >= 0"),
    "theta-true": (_set(True, "theta"), "theta", "not an exact rational: True"),
}


@pytest.mark.parametrize("case", sorted(CERTIFICATE_ERRORS))
def test_malformed_folner_certificate_names_its_field(tmp_path, capsys, case):
    mutate, field, message = CERTIFICATE_ERRORS[case]
    assert run_scenario_config(DEFECT, out_dir=tmp_path / "cert") == 0
    cert = json.loads((tmp_path / "cert" / "certificate.json").read_text())
    mutate(cert)
    with pytest.raises(ConfigError) as info:
        run_scenario_config({"task": "defect", "params": {"certificate": cert}})
    assert info.value.path == f"params.certificate.{field}"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cert))
    capsys.readouterr()
    assert run(["folner-defect", "--verify-cert", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: params.certificate.{field}: {message}")


# ---------------------------------------------------------------------------
# Config fuzzing: single-field mutations of every README example and base config
# ---------------------------------------------------------------------------

MUTATIONS = ["delete", None, -1, "zz", [], {}, True, 1.5, 0, "", [[]]]
PATH_TOKEN = re.compile(r"\.?([^.\[\]]+)|\[([^\]]*)\]")


def _fuzz_bases() -> list[dict]:
    """The README example scenarios (built from their flags) and the base
    configs above, with a defect certificate produced from DEFECT."""
    bases = [SEARCH, DEFECT, PARADOX_SEARCH, STANDARD_VERIFY, BUILD, SUITE, DISCRETE, SEMINORM, F2_SEMINORM,
             CIRCLE_SEMINORM, HEISENBERG_DEFECT, WOBBLE, PERTURB_PRECOMPACT, UNREACHABLE_SEARCH,
             VERIFY,
             {"task": "paradox-verify", "model": F2_MODEL,
              "params": {"certificate": FORGED_CERTIFICATE, "window_resolution": 2}}]
    bases += [base for base, _ in INTEGER_FIELDS.values()]
    with tempfile.TemporaryDirectory() as tmp:
        weight = Path(tmp) / "w.json"
        weight.write_text(json.dumps({"support": ["0", "2/5"], "weights": ["1", "-1"]}))
        for argv in README_EXAMPLES:
            bases.append(_config_from_flags(_parser().parse_args([str(weight) if a == "w.json" else a for a in argv])))
        assert run_scenario_config(DEFECT, out_dir=Path(tmp) / "cert") == 0
        cert = json.loads((Path(tmp) / "cert" / "certificate.json").read_text())
    bases.append({"task": "defect", "params": {"certificate": cert}})
    return bases


FUZZ_BASES = _fuzz_bases()


def _field_paths(obj, prefix=()):
    """Every field path in a config; lists contribute their first three items."""
    if prefix:
        yield prefix
    items = obj.items() if isinstance(obj, dict) else enumerate(obj[:3]) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _field_paths(value, prefix + (key,))


def _mutate(obj, path: tuple, value) -> None:
    """Delete the field at `path` ("delete"), or set it to a copy of `value`."""
    holder = obj
    for key in path[:-1]:
        holder = holder[key]
    if value == "delete":
        del holder[path[-1]]
    else:
        holder[path[-1]] = json.loads(json.dumps(value))


def _resolves(config, path: str) -> bool:
    """Whether a ConfigError path names a field of the config, or a missing
    key of an object in it."""
    keys = []
    for name, index in PATH_TOKEN.findall(path):
        if name:
            keys.append(name)
        else:
            keys.append(int(index) if index.isdigit() else ast.literal_eval(index) if index[:1] in "'\"" else index)
    obj = config
    for k, key in enumerate(keys):
        if isinstance(obj, dict) and key in obj:
            obj = obj[key]
        elif isinstance(obj, list) and isinstance(key, int) and 0 <= key < len(obj):
            obj = obj[key]
        else:
            return isinstance(obj, dict) and k == len(keys) - 1
    return True


@settings(derandomize=True, database=None, max_examples=1000, deadline=None)
@given(st.data())
def test_mutated_config_exits_0_or_2_or_names_its_field(data):
    # every seeded single mutation ends in exit 0 or 2, or in a ConfigError
    # whose path is in the mutated config: never another exception
    config = json.loads(json.dumps(data.draw(st.sampled_from(FUZZ_BASES))))
    path = data.draw(st.sampled_from(list(_field_paths(config))))
    value = data.draw(st.sampled_from(MUTATIONS))
    _mutate(config, path, value)
    with tempfile.TemporaryDirectory() as out, mock.patch.object(cli, "run_suite", lambda numbers: []), \
            contextlib.redirect_stdout(io.StringIO()):
        try:
            code = run_scenario_config(config, out_dir=Path(out))
        except ConfigError as exc:
            assert _resolves(config, exc.path), f"{exc} at {path}={value!r}"
        else:
            assert code in (0, 2)


# ---------------------------------------------------------------------------
# Loader fuzzing: single mutations of each file form, read by its library loader
# ---------------------------------------------------------------------------

LOADER_MUTATIONS = ["delete", None, -1, "zz", [], {}, True, 1.5, "1/0"]
CIRCLE_MODEL = make_model("circle")
Z2_MODEL = make_model("lattice", dim=2)
# A lattice paradox certificate reaching every classifier op; the loader
# checks its shape, not whether it is a paradox.
LATTICE_CERTIFICATE = {
    "form": "two_equation",
    "g": [[], ["1,0", "0,1"]],
    "h": ["0,-1"],
    "A": [{"op": "and", "args": [{"op": "coord_sign", "index": 0, "sign": "+"},
                                 {"op": "residue", "index": 1, "mod": 2, "value": 0}]},
          {"op": "not", "arg": {"op": "in", "elements": ["0,0", "1,1"]}}],
    "B": [{"op": "or", "args": [{"op": "identity"}, {"op": "true"}]}],
}


def _loader_bases() -> list[tuple]:
    """(name, loader, valid file) for each file form; the action and the
    Følner certificate are produced by the CLI."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        assert run_scenario_config(BUILD, out_dir=Path(tmp) / "action") == 0
        action = json.loads((Path(tmp) / "action" / "certificate.json").read_text())
        scaled = {"rule": "scaled", "factor": "2", "base": {"rule": "word"}}
        defect = {**DEFECT, "params": {**DEFECT["params"], "radius": "2", "metric": scaled, "crosscheck": True}}
        assert run_scenario_config(defect, out_dir=Path(tmp) / "cert") == 0
        folner = json.loads((Path(tmp) / "cert" / "certificate.json").read_text())
    bases = [
        ("weight", lambda obj: FiniteWeight.from_json(obj, CIRCLE_MODEL),
         {"support": ["0", "1/3", "1/2"], "weights": ["1/2", "-1/4", "-1/4"]}),
        ("action", lambda obj: PerturbedAction.from_json(obj, CIRCLE_MODEL), action),
        ("paradox-f2", lambda obj: ParadoxCertificate.from_json(obj, make_model("free", rank=2)),
         STANDARD_CERTIFICATE),
        ("paradox-lattice", lambda obj: ParadoxCertificate.from_json(obj, Z2_MODEL), LATTICE_CERTIFICATE),
        ("folner", FolnerCertificate.from_json, folner),
    ]
    for _, load, base in bases:
        load(base)  # each base is valid
    return bases


LOADER_BASES = _loader_bases()


@pytest.mark.parametrize("name, load, base", LOADER_BASES, ids=[name for name, _, _ in LOADER_BASES])
@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_file_loads_or_names_its_field(name, load, base, data):
    # every single mutation of a valid file either loads or raises a
    # CertificateError whose path is in the mutated file: never another exception
    obj = json.loads(json.dumps(base))
    path = data.draw(st.sampled_from(list(_field_paths(obj))))
    _mutate(obj, path, data.draw(st.sampled_from(LOADER_MUTATIONS)))
    try:
        load(obj)
    except CertificateError as exc:
        assert _resolves(obj, exc.path), f"{exc} at {path}"


def test_readme_field_table_matches_the_declared_tables():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("| task | mode | required | optional (default) |", 1)[1].split("\n\n", 1)[0]
    documented = {}
    for line in table.splitlines()[2:]:
        task, mode, required, optional = (re.findall(r"`([^`]+)`", cell) for cell in line.split("|")[1:5])
        documented[(task[0], mode[0] if mode else "")] = (required, optional)
    declared = {}
    for task, entry in cli.TASKS.items():
        for mode, spec in ({"": entry} if isinstance(entry, cli.Mode) else entry[1]).items():
            fields = [(key, default is cli.REQUIRED) for key, (_, default) in spec.fields.items()]
            declared[(task, mode)] = ([k for k, r in fields if r], [k for k, r in fields if not r])
    assert documented == declared
