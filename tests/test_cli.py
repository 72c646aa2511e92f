import json
import os

import pytest

from coarse_menger.acceptance import run_criterion
from coarse_menger.cli import (
    EXIT_CAPACITY,
    EXIT_CONFIG,
    EXIT_OK,
    main,
)
from coarse_menger.generators import grid, grid_column
from coarse_menger.graph import to_json_dict
from coarse_menger.packing import menger_packing


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0


def test_missing_subcommand_is_config_error(capsys):
    assert run(capsys, )[0] == EXIT_CONFIG


def test_unknown_flag_is_config_error(capsys):
    assert run(capsys, "run-duality", "--frobnicate")[0] == EXIT_CONFIG


def test_run_duality_grid(capsys):
    code, out, _ = run(capsys, "run-duality", "--grid", "3x4",
                       "--r", "1,2", "--beta", "0,1")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["violations"] == []
    inst = doc["instances"][0]
    assert inst["packing"]["1"]["value"] == 3


GRID_3X6 = ("run-duality", "--grid", "3x6", "--r", "1,2", "--beta", "0,1")


def test_run_duality_above_the_cap_answers_with_flags(capsys):
    # 18 vertices: past the exact cap, every packing cell takes its flagged
    # fallback; the cover cells at l = 0 separate x from y exactly
    code, out, _ = run(capsys, *GRID_3X6)
    assert code == EXIT_OK
    inst = json.loads(out)["instances"][0]
    assert all(c["flag"] and not c["exact"] for c in inst["packing"].values())
    flow = menger_packing(grid(3, 6), grid_column(3, 6, 0), grid_column(3, 6, 5))
    assert flow == 3
    assert inst["cover"] == {"0": {"value": flow, "exact": True, "flag": None},
                             "1": {"value": 1, "exact": True, "flag": None}}


def test_run_duality_above_the_cap_strict_exits_capacity(capsys):
    assert run(capsys, *GRID_3X6, "--strict")[0] == EXIT_CAPACITY


def test_run_duality_above_the_cap_with_positive_l_has_no_cover_value(capsys):
    code, out, _ = run(capsys, *GRID_3X6, "--l", "1")
    assert code == EXIT_OK
    cover = json.loads(out)["instances"][0]["cover"]
    assert [c["value"] for c in cover.values()] == [None, None]
    assert all(c["flag"] and not c["exact"] for c in cover.values())


def test_run_duality_bad_grid(capsys):
    assert run(capsys, "run-duality", "--grid", "3by4")[0] == EXIT_CONFIG


def test_run_duality_bad_threshold_list(capsys):
    assert run(capsys, "run-duality", "--grid", "2x2",
               "--r", "1,,x")[0] == EXIT_CONFIG


def test_run_duality_repeated_threshold(capsys):
    assert run(capsys, "run-duality", "--grid", "2x2",
               "--r", "1,1")[0] == EXIT_CONFIG


def test_run_duality_decimal_threshold_is_exact(capsys):
    code, out, _ = run(capsys, "run-duality", "--grid", "2x3",
                       "--r", "0.5,1", "--beta", "0")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["config"]["r"] == ["1/2", 1]
    assert sorted(doc["instances"][0]["packing"]) == ["1", "1/2"]


@pytest.mark.parametrize("value", ["nan", "inf", "1/0"])
def test_run_duality_non_finite_threshold_is_config_error(capsys, value):
    assert run(capsys, "run-duality", "--grid", "2x2",
               "--r", value)[0] == EXIT_CONFIG


def test_run_duality_missing_file(capsys):
    assert run(capsys, "run-duality", "--file", "/nonexistent.json")[0] == \
        EXIT_CONFIG


def test_run_duality_file_instances(tmp_path, capsys):
    g = grid(2, 3)
    doc = [{"graph": to_json_dict(g),
            "x": sorted(grid_column(2, 3, 0)),
            "y": sorted(grid_column(2, 3, 2)),
            "label": "tiny"}]
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "run-duality", "--file", str(path),
                       "--r", "1", "--beta", "0")
    assert code == EXIT_OK
    parsed = json.loads(out)
    assert parsed["instances"][0]["label"] == "tiny"


@pytest.mark.parametrize("instance,message", [
    ({"graph": {"vertices": [0, 1], "edges": [[0, 1, 2]]}, "x": [0], "y": [1]},
     "instance 0: bad edge"),
    ({"graph": {"vertices": [0, 1], "edges": [[0, 1]], "weights": {"0-1": 2}},
      "x": [0], "y": [1]},
     "instance 0: weights must be an array"),
    ({"graph": {"vertices": [0, 1], "edges": [[0, 1]], "weights": [True]},
      "x": [0], "y": [1]},
     "instance 0: weight True"),
    ({"graph": {"vertices": [0, 1], "edges": [[0, 1]], "weights": [None]},
      "x": [0], "y": [1]},
     "instance 0: bad edge weight"),
    ({"graph": {"vertices": [0, 1], "edges": [[0, 1]]}, "x": 0, "y": [1]},
     "instance 0: malformed field"),
    ({"graph": {"vertices": [0, 1], "edges": [[0, 1]]}, "x": ["a"], "y": [1]},
     "bad vertex id"),
    ({"graph": {"vertices": [0, 1], "edges": [[0, 1]]}, "x": [0]},
     "instance 0: missing field 'y'"),
    ({"graph": {"vertices": [0, 1.5], "edges": [[0, 1.5]]}, "x": [0], "y": [1]},
     "instance 0: bad vertex id"),
])
def test_run_duality_malformed_file_names_the_fault(tmp_path, capsys, instance, message):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps([instance]))
    code, _, err = run(capsys, "run-duality", "--file", str(path), "--r", "1", "--beta", "0")
    assert code == EXIT_CONFIG
    assert message in err
    assert "Traceback" not in err


def test_run_duality_output_files(tmp_path, capsys):
    out_path = tmp_path / "report"
    code, _, _ = run(capsys, "run-duality", "--grid", "2x3",
                     "--out", str(out_path))
    assert code == EXIT_OK
    assert (tmp_path / "report.json").exists()
    csv = (tmp_path / "report.csv").read_text()
    assert csv.splitlines()[0] == "fingerprint,kind,threshold,value,exact,flag"


def test_run_duality_deterministic_modulo_timestamp(capsys):
    _, out1, _ = run(capsys, "run-duality", "--seed", "3", "--count", "3")
    _, out2, _ = run(capsys, "run-duality", "--seed", "3", "--count", "3")
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("timestamp"), d2.pop("timestamp")
    assert d1 == d2


def test_env_cap_malformed(capsys, monkeypatch):
    monkeypatch.setenv("COARSE_MENGER_CAP", "many")
    assert run(capsys, "gen", "--count", "1")[0] == EXIT_CONFIG


def test_env_cap_is_clamped(capsys, monkeypatch):
    monkeypatch.setenv("COARSE_MENGER_CAP", "999")
    code, out, _ = run(capsys, "gen", "--count", "3", "--seed", "2")
    assert code == EXIT_OK
    for inst in json.loads(out)["instances"]:
        assert len(inst["graph"]["vertices"]) <= 16


def test_run_acceptance_single_criterion(capsys):
    code, out, err = run(capsys, "run-acceptance", "--only", "transfer-pinning")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["passed"] is True
    assert "PASS transfer-pinning" in err


def test_run_acceptance_unknown_criterion(capsys):
    assert run(capsys, "run-acceptance", "--only", "nope")[0] == EXIT_CONFIG


def test_run_tangle_lab_is_the_tangle_criterion(capsys):
    code, out, _ = run(capsys, "run-tangle-lab", "--seed", "5")
    assert code == EXIT_OK
    expected = run_criterion("tangle", 5).to_json_dict()
    expected.pop("seconds")
    result = json.loads(out)["result"]
    result.pop("seconds")
    assert result == json.loads(json.dumps(expected))


def test_run_transfer_pinned(capsys):
    code, out, _ = run(capsys, "run-transfer", "--m", "1", "--a", "0",
                       "--k", "3", "--r", "2", "--count-bound", "5",
                       "--radius-bound", "7", "--ledger")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["constants"] == {"c1": 4, "c2": 4}
    assert doc["chain"]["f_out"] == 7
    assert doc["c_h_ledger"]["finite_apex"]["coefficient"] == 14


def test_gen_grid_instance(capsys):
    code, out, _ = run(capsys, "gen", "--grid", "2x4")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["instances"][0]["family"] == "menger_lower_bound"


def test_gen_bad_family(capsys):
    assert run(capsys, "gen", "--family", "weird")[0] == EXIT_CONFIG
