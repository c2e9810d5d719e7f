"""Command-line surface: exit codes, artifacts, strict configs, determinism."""

import json
from pathlib import Path

import pytest

from folnerlab.cli import ConfigError, main, run_scenario, run_scenario_config


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


@pytest.mark.parametrize(
    "args, flag",
    [
        (["seminorm", "--kind", "circle", "--weight"], "--weight"),
        (["paradox", "verify", "--kind", "free", "--rank", "2", "--cert"], "--cert"),
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
    assert run_scenario(config, out_dir=out) == 0
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
    assert run_scenario(config) == 1
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
    assert run_scenario(config) == 1
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
        {"task": "paradox-search", "model": F2_MODEL, "params": {"pool": ["a", "b"], "window_resolution": 1, "max_pieces": 2}},
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
    assert run_scenario(path) == 1
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
    assert run_scenario(path) == 1
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
    assert run_scenario(path) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {field}: ")
    assert "seminorm:" not in captured.out
