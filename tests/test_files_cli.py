import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import linsys
from linsys import (
    LinearSystemError,
    LinearityViolation,
    load_instance,
    new_linear_system,
    save_instance,
)
from linsys import cli
from linsys.cli import main
from linsys.files import MAX_POINTS, InstanceFormatError, from_instance_dict, to_instance_dict
from linsys.verify import HarnessError, VerifyConfig

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _cli_env() -> dict[str, str]:
    """The caller's environment with this package's source directory put
    ahead of the inherited ``PYTHONPATH``, so that a subprocess finds linsys
    and still finds dependencies reached through that path.  Without
    ``PYTHONUNBUFFERED`` the child's stdout is block-buffered, as a pipe or
    file gets by default, so a failed write leaves text for the flush at exit."""
    paths = [str(Path(linsys.__file__).resolve().parents[1])]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    env.pop("PYTHONUNBUFFERED", None)
    return env


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


def test_text_format_bad_tokens(tmp_path, capsys):
    path = tmp_path / "sys.txt"
    for body, reason in (("1 x", "non-integer token"), ("1 +-5", "non-integer token"),
                         ("1 -" + "9" * 5000, "a number has too many digits")):
        path.write_text("0 1\n" + body + "\n")
        with pytest.raises(InstanceFormatError, match=f"^{reason} in text input at line 2$"):
            load_instance(path)
        assert main(["stats", str(path)]) == cli.EXIT_BAD_INSTANCE == 1
        assert capsys.readouterr().err == f"error: {reason} in text input at line 2\n"
    # a text file declares no point count, so only negative ids report the first id
    path.write_text("-5 -3\n")
    assert main(["stats", str(path)]) == cli.EXIT_BAD_INSTANCE == 1
    assert capsys.readouterr().err == "error: line 0 contains invalid point id -5\n"


def test_malformed_inputs(tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    with pytest.raises(InstanceFormatError) as exc:
        load_instance(bad_json)
    assert "line 1" in str(exc.value)

    with pytest.raises(InstanceFormatError):
        from_instance_dict({"format_version": 2, "n_points": 1, "lines": []})
    # True == 1.0 == 1, but only the integer 1 is a format version
    for version in (True, 1.0):
        with pytest.raises(InstanceFormatError, match=f"^unsupported format_version {version}$"):
            from_instance_dict({"format_version": version, "n_points": 1, "lines": []})
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


def test_cli_huge_plane_order_fails_at_once(tmp_path):
    env = _cli_env()
    done = subprocess.run(
        [sys.executable, "-m", "linsys", "construct", "pi:2305843009213693951",
         "--out", str(tmp_path / "plane.json")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == cli.EXIT_BAD_PARAMS
    assert done.stderr == "error: order 2305843009213693951 exceeds the supported bound 11\n"
    assert not (tmp_path / "plane.json").exists()


def test_deeply_nested_json_is_a_format_error(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text('{"a": ' + "[" * 200_000 + "]" * 200_000 + "}")
    with pytest.raises(InstanceFormatError, match="nested too deeply"):
        load_instance(deep)
    assert main(["solve", str(deep)]) == cli.EXIT_BAD_INSTANCE
    assert capsys.readouterr().err == "error: invalid JSON: nested too deeply\n"


def test_integer_past_the_digit_limit_is_a_format_error(tmp_path, capsys):
    huge = tmp_path / "huge.json"
    huge.write_text('{"format_version": 1, "n_points": ' + "1" * 5000 + ', "lines": []}')
    with pytest.raises(InstanceFormatError):
        load_instance(huge)
    assert main(["stats", str(huge)]) == cli.EXIT_BAD_INSTANCE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_huge_ground_set_fails_at_once(tmp_path):
    too_many = 1_000_000_000
    json_file = tmp_path / "huge.json"
    json_file.write_text(
        json.dumps({"format_version": 1, "n_points": too_many, "lines": [[0]]})
    )
    text_file = tmp_path / "huge.txt"
    text_file.write_text(f"0 {too_many - 1}\n")
    message = f"error: n_points {too_many} exceeds the supported limit of {MAX_POINTS}\n"
    env = _cli_env()
    for command in ("stats", "solve"):
        for path in (json_file, text_file):
            done = subprocess.run(
                [sys.executable, "-m", "linsys", command, str(path)],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert done.returncode == cli.EXIT_BAD_INSTANCE
            assert done.stderr == message
    # the largest ground set allowed still loads
    edge = tmp_path / "edge.txt"
    edge.write_text(f"0 {MAX_POINTS - 1}\n")
    assert load_instance(edge).n_points == MAX_POINTS


def test_cli_verify_defaults_come_from_verify_config():
    args = cli.build_parser().parse_args(["verify"])
    config = VerifyConfig()
    assert (args.seed, args.random) == (config.seed, config.n_random)


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


def test_cli_unreadable_inputs(tmp_path, capsys, monkeypatch):
    assert main(["solve", str(tmp_path)]) == cli.EXIT_BAD_INSTANCE
    assert "error: cannot read" in capsys.readouterr().err
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes(b"0 1 # caf\xe9\n")
    for command in ("solve", "stats", "planarity"):
        assert main([command, str(latin1)]) == cli.EXIT_BAD_INSTANCE
        assert capsys.readouterr().err == f"error: cannot read {latin1}: not UTF-8 text\n"

    def unreadable(path):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr(cli, "load_instance", unreadable)
    assert main(["solve", "any.json"]) == cli.EXIT_BAD_INSTANCE
    assert "error: cannot read any.json: Permission denied" in capsys.readouterr().err


def test_byte_order_mark_is_skipped(tmp_path, capsys):
    # a file saved with a UTF-8 byte-order mark loads as the same system, and
    # a JSON one is still read as JSON, not as the text format
    for name, body in (("pi3.json", (FIXTURES / "pi3.json").read_bytes()),
                       ("sys.txt", b"# a comment\n0 1 2\n2 3\n")):
        plain, marked = tmp_path / name, tmp_path / f"bom-{name}"
        plain.write_bytes(body)
        marked.write_bytes(b"\xef\xbb\xbf" + body)
        assert load_instance(marked) == load_instance(plain)
    assert main(["stats", str(tmp_path / "bom-pi3.json")]) == cli.EXIT_OK
    assert capsys.readouterr().err == ""


def test_cli_unwritable_outputs(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    for argv in (
        ["construct", "c44", "--out", str(taken)],
        ["enumerate-c44", "--out", str(taken)],
        ["verify", "--no-fixtures", "--random", "2", "--exhaustive", "3,2", "--out", str(taken)],
        ["construct", "pi:2", "--out", str(tmp_path / "missing" / "x.json")],
    ):
        assert main(argv) == cli.EXIT_BAD_PARAMS
        captured = capsys.readouterr()
        assert "error: cannot write" in captured.err
        assert "wrote" not in captured.out
    assert taken.read_text() == ""
    assert not (tmp_path / "missing").exists()


def test_cli_verify_checks_output_before_running(tmp_path, capsys, monkeypatch):
    ran = []

    def run_all(config):
        ran.append(config)
        raise AssertionError("the harness must not run")

    monkeypatch.setattr(cli, "run_all", run_all)
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["verify", "--out", str(taken)]) == cli.EXIT_BAD_PARAMS
    assert "error: cannot write" in capsys.readouterr().err
    assert ran == []
    assert taken.read_text() == ""


def test_cli_verify_rejects_negative_random(tmp_path, capsys):
    out_dir = tmp_path / "report"
    assert main(["verify", "--random", "-3", "--out", str(out_dir)]) == cli.EXIT_BAD_PARAMS
    assert "error: --random" in capsys.readouterr().err
    assert not out_dir.exists()


def test_cli_verify_rejects_bad_exhaustive_bounds(tmp_path, capsys):
    out_dir = tmp_path / "nested" / "report"
    code = main(["verify", "--exhaustive", "4,-3", "--out", str(out_dir)])
    assert code == cli.EXIT_BAD_PARAMS
    assert "error: bounds must be nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "nested").exists()


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


def test_cli_text_outputs(tmp_path, capsys):
    assert main(["stats", str(FIXTURES / "c.json"), "--format", "text"]) == 0
    assert capsys.readouterr().out == (
        "n_points: 10\n"
        "n_lines: 10\n"
        "max_degree: 4\n"
        "degree_histogram: {'3': 6, '4': 4}\n"
        "line_size_histogram: {'3': 6, '4': 4}\n"
        "points_degree_ge_3: 10\n"
        "points_degree_ge_4: 4\n"
    )
    assert main(["solve", str(FIXTURES / "c34.json"), "--format", "text"]) == 0
    assert capsys.readouterr().out == (
        "tau = 4  witness [0, 1, 2, 3]\nnu2 = 4  witness [0, 1, 3, 4]\n"
    )
    path = tmp_path / "planar.txt"
    path.write_text("0 1 2\n3 4 5\n2 6\n")
    assert main(["stats", str(path), "--format", "text"]) == 0
    assert capsys.readouterr().out == (
        "n_points: 7\n"
        "n_lines: 3\n"
        "max_degree: 2\n"
        "degree_histogram: {'1': 6, '2': 1}\n"
        "line_size_histogram: {'2': 1, '3': 2}\n"
        "points_degree_ge_3: 0\n"
        "points_degree_ge_4: 0\n"
    )
    assert main(["solve", str(path), "--format", "text"]) == 0
    assert capsys.readouterr().out == "tau = 2  witness [2, 3]\nnu2 = 3  witness [0, 1, 2]\n"


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


def test_cli_search_past_the_recursion_limit(tmp_path, capsys):
    path = tmp_path / "disjoint.json"
    save_instance(path, new_linear_system(2400, [[2 * i, 2 * i + 1] for i in range(1200)]))
    assert main(["solve", str(path)]) == cli.EXIT_BAD_PARAMS
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: transversal_number: ")


@pytest.mark.parametrize("exc, code, message", [
    (PermissionError(13, "Permission denied", "out.json"), cli.EXIT_BAD_PARAMS,
     "cannot write out.json: Permission denied"),
    (LinearSystemError("bad bounds"), cli.EXIT_BAD_PARAMS, "bad bounds"),
    (HarnessError("solver/oracle mismatch on x"), cli.EXIT_INTERNAL,
     "solver/oracle mismatch on x"),
])
def test_main_maps_each_error_to_its_exit_code(monkeypatch, capsys, exc, code, message):
    def failing(args):
        print("partial output")
        raise exc

    monkeypatch.setattr(cli, "cmd_enumerate_c44", failing)
    assert main(["enumerate-c44"]) == code
    assert capsys.readouterr() == ("partial output\n", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["solve", str(FIXTURES / "pi3.json")],
    ["stats", str(FIXTURES / "pi3.json")],
    ["planarity", str(FIXTURES / "c34.json")],
    ["enumerate-c44"],
])
def test_cli_closed_stdout_exits_quietly(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child writes: its first flush breaks the pipe
    try:
        done = subprocess.run(
            [sys.executable, "-m", "linsys", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=_cli_env(), timeout=120,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (cli.EXIT_BAD_PARAMS, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_cli_full_stdout_is_one_error_line():
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "linsys", "stats", str(FIXTURES / "pi5.json")],
            stdout=full, stderr=subprocess.PIPE, text=True, env=_cli_env(), timeout=60,
        )
    assert done.returncode == cli.EXIT_BAD_PARAMS
    assert done.stderr == "error: cannot write <stdout>: No space left on device\n"


def test_cli_enumerate_c44_summary(capsys):
    assert main(["enumerate-c44"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc) == 8
    assert all(entry["name"].startswith("c44:") for entry in doc)


def test_cli_enumerate_c44(tmp_path, capsys):
    out_dir = tmp_path / "members"
    assert main(["enumerate-c44", "--out", str(out_dir)]) == 0
    assert capsys.readouterr().out == f"wrote 8 members to {out_dir}/\n"
    files = sorted(out_dir.glob("member_*.json"))
    assert len(files) == 8
    assert load_instance(files[0]).n_lines >= 10
    constructed = tmp_path / "constructed"
    assert main(["construct", "c44", "--out", str(constructed)]) == 0
    assert capsys.readouterr().out == f"wrote 8 systems to {constructed}/\n"
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


def test_python_dash_m_runs_the_cli():
    env = _cli_env()
    done = subprocess.run(
        [sys.executable, "-m", "linsys", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: linsys")
    assert "verify" in done.stdout
