import json
from pathlib import Path

import pytest

from linsys import (
    LinearityViolation,
    load_instance,
    new_linear_system,
    save_instance,
)
from linsys import cli
from linsys.cli import main
from linsys.files import InstanceFormatError, from_instance_dict, to_instance_dict
from linsys.verify import HarnessError

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_round_trip(tmp_path, pi3):
    path = tmp_path / "pi3.json"
    save_instance(path, pi3, name="pi:3", comments="plane of order 3")
    loaded = load_instance(path)
    assert loaded == pi3
    doc = json.loads(path.read_text())
    assert doc["format_version"] == 1
    assert doc["name"] == "pi:3"


def test_text_format(tmp_path):
    path = tmp_path / "sys.txt"
    path.write_text("# a comment\n0 1 2\n2 3  # trailing comment\n\n")
    loaded = load_instance(path)
    assert loaded == new_linear_system(4, [[0, 1, 2], [2, 3]])


def test_malformed_inputs(tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    with pytest.raises(InstanceFormatError) as exc:
        load_instance(bad_json)
    assert "line 1" in str(exc.value)

    with pytest.raises(InstanceFormatError):
        from_instance_dict({"format_version": 2, "n_points": 1, "lines": []})
    with pytest.raises(InstanceFormatError) as exc:
        from_instance_dict({"format_version": 1, "n_points": 3, "lines": [[0], ["x"]]})
    assert exc.value.line_index == 1
    # JSON true is a bool, not a point id or count
    with pytest.raises(InstanceFormatError):
        from_instance_dict(
            {"format_version": 1, "n_points": 3, "lines": [[0, True], [True, 2]]}
        )
    with pytest.raises(InstanceFormatError):
        from_instance_dict({"format_version": 1, "n_points": True, "lines": [[0]]})

    nonlinear = tmp_path / "nonlinear.json"
    nonlinear.write_text(
        json.dumps({"format_version": 1, "n_points": 4, "lines": [[0, 1, 2], [0, 1, 3]]})
    )
    with pytest.raises(LinearityViolation):
        load_instance(nonlinear)


def test_instance_dict_preserves_fields(c34):
    doc = to_instance_dict(c34, name="c34")
    assert from_instance_dict(doc) == c34


def test_cli_construct_solve_stats(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["construct", "pi:3"]) == 0
    capsys.readouterr()
    assert main(["solve", "pi3.json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tau"]["value"] == 4 and doc["nu2"]["value"] == 4
    assert main(["stats", "pi3.json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["max_degree"] == 4 and doc["degree_histogram"] == {"4": 13}


def test_cli_bad_construct_params(capsys):
    assert main(["construct", "pi:4"]) == 2
    assert "prime" in capsys.readouterr().err
    assert main(["construct", "nonsense"]) == 2


def test_cli_solve_bad_inputs(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "missing.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["solve", str(bad)]) == 1
    nonlinear = tmp_path / "nl.json"
    nonlinear.write_text(
        json.dumps({"format_version": 1, "n_points": 4, "lines": [[0, 1, 2], [0, 1, 3]]})
    )
    assert main(["solve", str(nonlinear)]) == 1
    err = capsys.readouterr().err
    assert "lines 0 and 1" in err


def test_cli_planarity(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["construct", "c34"]) == 0
    capsys.readouterr()
    assert main(["planarity", "c34.json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["planar"] is False
    assert doc["witness"]["kind"] in ("K5", "K33")
    assert doc["witness"]["paths"]


def test_cli_solve_single_number(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["construct", "c"]) == 0
    capsys.readouterr()
    assert main(["solve", "c.json", "--what", "tau"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"tau"} and doc["tau"]["value"] == 4
    assert main(["solve", "c.json", "--what", "nu2", "--format", "text"]) == 0
    assert "nu2 = 4" in capsys.readouterr().out


def test_cli_planarity_planar_instance(tmp_path, capsys):
    path = tmp_path / "disjoint.json"
    save_instance(path, new_linear_system(6, [[0, 1, 2], [3, 4, 5]]))
    assert main(["planarity", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["planar"] is True and "embedding" in doc
    assert main(["planarity", str(path), "--format", "text"]) == 0
    assert "planar" in capsys.readouterr().out


def test_cli_planarity_invalid_certificate(tmp_path, capsys, monkeypatch):
    path = tmp_path / "disjoint.json"
    save_instance(path, new_linear_system(6, [[0, 1, 2], [3, 4, 5]]))
    monkeypatch.setattr(cli, "validate_verdict", lambda graph, verdict: False)
    assert main(["planarity", str(path)]) == cli.EXIT_INTERNAL == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "certificate failed validation" in captured.err


def test_cli_verify_harness_error(tmp_path, capsys, monkeypatch):
    def run_all(config):
        raise HarnessError("transversal solver/oracle mismatch on x")

    monkeypatch.setattr(cli, "run_all", run_all)
    out_dir = tmp_path / "report"
    assert main(["verify", "--out", str(out_dir)]) == cli.EXIT_INTERNAL
    assert "solver/oracle mismatch" in capsys.readouterr().err
    assert not out_dir.exists()


def test_cli_enumerate_c44_summary(capsys):
    assert main(["enumerate-c44"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc) == 8
    assert all(entry["name"].startswith("c44:") for entry in doc)


def test_cli_enumerate_c44(tmp_path, capsys):
    out_dir = tmp_path / "members"
    assert main(["enumerate-c44", "--out", str(out_dir)]) == 0
    files = sorted(out_dir.glob("member_*.json"))
    assert len(files) == 8
    assert load_instance(files[0]).n_lines >= 10
    constructed = tmp_path / "constructed"
    assert main(["construct", "c44", "--out", str(constructed)]) == 0
    assert sorted(p.name for p in constructed.iterdir()) == [f.name for f in files]
    for f in files:
        assert (constructed / f.name).read_bytes() == f.read_bytes()


def test_cli_verify_quick(tmp_path, capsys):
    out_dir = tmp_path / "report"
    code = main(
        [
            "verify",
            "--seed",
            "5",
            "--random",
            "20",
            "--exhaustive",
            "5,3",
            "--out",
            str(out_dir),
        ]
    )
    assert code == 0
    assert (out_dir / "report.json").exists()
    assert (out_dir / "report.md").exists()
    doc = json.loads((out_dir / "report.json").read_text())
    assert doc["all_passed"] is True


def test_cli_verify_empty_corpus_fails(tmp_path):
    out_dir = tmp_path / "report"
    code = main(
        [
            "verify",
            "--no-fixtures",
            "--random",
            "0",
            "--exhaustive",
            "0,0",
            "--out",
            str(out_dir),
        ]
    )
    assert code == 3


def test_cli_solve_order_five_plane(capsys):
    assert main(["solve", str(FIXTURES / "pi5.json")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tau"]["value"] == 6 and doc["nu2"]["value"] == 6


def test_exported_fixture_files(pi3, c34, c_sys):
    assert (FIXTURES / "pi3.json").exists(), "fixtures/ directory should be committed"
    assert load_instance(FIXTURES / "pi3.json") == pi3
    assert load_instance(FIXTURES / "c34.json") == c34
    assert load_instance(FIXTURES / "c.json") == c_sys
    assert load_instance(FIXTURES / "pi2.json").n_points == 7
    assert load_instance(FIXTURES / "pi5.json").n_points == 31
    members = sorted((FIXTURES / "c44").glob("member_*.json"))
    assert len(members) == 8
