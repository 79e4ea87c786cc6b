import json

import pytest

from shellball.cli import main
from shellball.complexes import build_complex, write_complex_file
from tests.test_complexes import MINOR23, SPHERE23


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_generate_minor(tmp_path, capsys):
    out = tmp_path / "delta.cx"
    code, stdout, _ = run(capsys, "generate", "minor", "m=2", "n=3", "r=1", "--out", str(out))
    assert code == 0
    meta = json.loads(stdout)
    assert meta["facets"] == 3 and meta["dim"] == 3
    text = out.read_text()
    assert text.startswith("n=6\nlabels=X_1_1,")
    assert meta["shelling_order"] == [0, 1, 2]


def test_generate_polar(tmp_path, capsys):
    out = tmp_path / "polar.cx"
    code, stdout, _ = run(capsys, "generate", "polar", "n=2", "t=2", "--out", str(out))
    assert code == 0
    assert json.loads(stdout)["facets"] == 3


def test_generate_invalid_r(capsys):
    code, _, err = run(capsys, "generate", "minor", "m=2", "n=3", "r=2")
    assert code == 2
    assert "r" in err


def test_check_minor_json(capsys):
    code, stdout, _ = run(capsys, "check", "minor", "m=2", "n=3", "r=1")
    assert code == 0
    rep = json.loads(stdout)
    assert rep["verdict"] == "PASS"
    assert (rep["e"], rep["L"], rep["U"]) == (8, 6, 12)
    assert rep["A1"] and rep["A2"] and rep["shelling_pass"] and rep["ball_pass"]
    assert rep["betti_table"]["p"] == 3


def test_check_polar_pass(capsys):
    code, stdout, _ = run(capsys, "check", "polar", "n=3", "t=2")
    assert code == 0
    assert json.loads(stdout)["verdict"] == "PASS"


def test_check_polar_inapplicable_exit_3(capsys):
    code, stdout, _ = run(capsys, "check", "polar", "n=2", "t=2")
    assert code == 3
    assert json.loads(stdout)["verdict"] == "INAPPLICABLE"


def test_check_sphere_file(tmp_path, capsys):
    path = tmp_path / "sphere.cx"
    write_complex_file(build_complex(SPHERE23, 6), path)
    code, stdout, _ = run(capsys, "check", "--file", str(path))
    assert code == 3
    rep = json.loads(stdout)
    assert rep["verdict"] == "INAPPLICABLE"
    assert any("no boundary" in r for r in rep["reasons"])


def test_check_ball_file(tmp_path, capsys):
    path = tmp_path / "ball.cx"
    write_complex_file(build_complex(MINOR23, 6), path)
    code, stdout, _ = run(capsys, "check", "--file", str(path))
    assert code == 0
    assert json.loads(stdout)["verdict"] == "PASS"


def test_generate_then_check_roundtrip_uses_sidecar_order(tmp_path, capsys):
    out = tmp_path / "gen.cx"
    code, _, _ = run(capsys, "generate", "minor", "m=3", "n=4", "r=2", "--out", str(out))
    assert code == 0
    assert (tmp_path / "gen.cx.meta.json").exists()
    code, stdout, _ = run(capsys, "check", "--file", str(out))
    assert code == 0
    rep = json.loads(stdout)
    assert rep["verdict"] == "PASS" and rep["ball_pass"]


@pytest.mark.parametrize(
    "sidecar, complaint",
    [
        ([0, 1, 2], "not a JSON object"),
        ({"shelling_order": [0, "a", 2]}, "not a list of integers"),
        ({"shelling_order": [0, 1]}, "shelling_order is not a permutation of the facets"),
        ({"shelling_order": [0, 0, 1]}, "shelling_order is not a permutation of the facets"),
    ],
)
def test_malformed_sidecar_is_usage_error(tmp_path, capsys, sidecar, complaint):
    path = tmp_path / "ball.cx"
    write_complex_file(build_complex(MINOR23, 6), path)
    (tmp_path / "ball.cx.meta.json").write_text(json.dumps(sidecar))
    code, stdout, err = run(capsys, "check", "--file", str(path))
    assert code == 2 and not stdout
    assert err.startswith("error: ") and complaint in err


def test_check_csv(capsys):
    code, stdout, _ = run(capsys, "check", "minor", "m=2", "n=3", "r=1", "--format", "csv")
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0] == "instance,n,d,m,e,L,U,A1,A2,verdict"
    assert lines[1].startswith("minor m=2 n=3 r=1,6,4,2,8,6,12,True,True,PASS")


def test_check_text_format(capsys):
    code, stdout, _ = run(capsys, "check", "minor", "m=2", "n=3", "r=1", "--format", "text")
    assert code == 0
    assert "verdict: PASS" in stdout


def test_dual_command(capsys):
    code, stdout, _ = run(capsys, "dual", "m=3", "n=4")
    assert code == 0
    rep = json.loads(stdout)
    assert rep["passed"] and rep["diagonal_count"] == 6


def test_corners_command(capsys):
    code, stdout, _ = run(capsys, "corners", "m=4", "n=5", "r=2")
    assert code == 0
    rep = json.loads(stdout)
    assert rep["spectrum"] == [2, 3, 4] and rep["matches"]
    assert rep["constructions"]["4"]


def test_cyclic_command(capsys):
    code, stdout, _ = run(capsys, "cyclic", "n=8", "d=5")
    assert code == 0
    rep = json.loads(stdout)
    assert rep["h"] == [1, 4, 10, 4, 1]
    assert rep["multiplicity"] == 20 and rep["equality"]


@pytest.mark.parametrize(
    "argv",
    [
        ["dual", "m=3", "n=4", "--format", "csv"],
        ["cyclic", "n=8", "d=5", "--max-facets", "10"],
        ["corners", "m=4", "n=5", "r=2", "--max-vertices", "4"],
        ["generate", "polar", "n=2", "t=2", "--seed", "1"],
    ],
)
def test_dropped_flags_are_usage_errors(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)  # generate writes into the working directory
    code, stdout, err = run(capsys, *argv)
    assert code == 2 and not stdout
    assert "unrecognized arguments" in err


def test_byte_stable_reports(capsys):
    _, first, _ = run(capsys, "check", "minor", "m=2", "n=3", "r=1")
    _, second, _ = run(capsys, "check", "minor", "m=2", "n=3", "r=1")
    assert first == second


def test_missing_param_is_usage_error(capsys):
    code, _, err = run(capsys, "check", "minor", "m=2")
    assert code == 2 and "n=" in err


@pytest.mark.parametrize(
    "argv, line",
    [
        ("check minor m=3 n=2 r=1", "error: need 1 <= m <= n"),
        ("check polar n=0 t=1", "error: need n >= 1 and t >= 1"),
        ("check polar n=20 t=7", "error: grid size 140 exceeds vertex cap 128"),
        (
            "generate minor m=3 n=4 r=1 --max-facets 0",
            "error: facet cap 0 exceeded (partial count 0)",
        ),
        ("dual m=1 n=3", "error: need 2 <= m <= n"),
        ("corners m=3 n=4 r=3", "error: need 1 <= r <= m-1 and m <= n"),
        ("cyclic n=5 d=5", "error: need n > d"),
    ],
)
def test_library_value_errors_exit_2(tmp_path, monkeypatch, capsys, argv, line):
    monkeypatch.chdir(tmp_path)
    code, stdout, err = run(capsys, *argv.split())
    assert (code, stdout, err) == (2, "", line + "\n")


def test_kind_with_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "ball.cx"
    write_complex_file(build_complex(MINOR23, 6), path)
    code, stdout, err = run(capsys, "check", "polar", "n=3", "t=2", "--file", str(path))
    assert code == 2 and not stdout
    assert err == "error: check takes a kind (minor|polar) or --file, not both\n"


@pytest.mark.parametrize("sigma", ["1,2", "1|2|3", "a|b", "|", "1;2|1,3"])
def test_malformed_sigma_names_its_form(capsys, sigma):
    code, stdout, err = run(capsys, "check", "minor", "m=3", "n=4", f"sigma={sigma}")
    assert code == 2 and not stdout
    assert err == f"error: expected sigma=<a1,..|b1,..>, got sigma={sigma}\n"


@pytest.mark.parametrize(
    "text, line",
    [
        ("n=abc\n0 1\n", "line 1: expected n=<int> with n >= 0, got 'n=abc'"),
        ("n=-1\n0\n", "line 1: expected n=<int> with n >= 0, got 'n=-1'"),
        ("# ball\n0 1\n", "line 2: expected n=<int> with n >= 0, got '0 1'"),
        ("", "line 1: expected n=<int> with n >= 0, got ''"),
        ("n=3\n0 1\n0 x\n", "line 3: expected integer vertex indices below n=3, got '0 x'"),
        (
            "# ball\nn=4\n\n0 1\n1 9\n",
            "line 5: expected integer vertex indices below n=4, got '1 9'",
        ),
        ("n=4\n0 -1\n", "line 2: expected integer vertex indices below n=4, got '0 -1'"),
    ],
)
def test_malformed_file_names_its_line(tmp_path, capsys, text, line):
    path = tmp_path / "bad.cx"
    path.write_text(text)
    code, stdout, err = run(capsys, "check", "--file", str(path))
    assert (code, stdout, err) == (2, "", f"error: {line}\n")


def test_non_pure_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.cx"
    path.write_text("n=5\n0 1 2\n3 4\n")
    code, _, err = run(capsys, "check", "--file", str(path))
    assert code == 2 and "not pure" in err


def test_report_has_no_floats(capsys):
    _, stdout, _ = run(capsys, "check", "polar", "n=3", "t=3")
    rep = json.loads(stdout)

    def no_floats(obj):
        if isinstance(obj, float):
            return False
        if isinstance(obj, dict):
            return all(no_floats(v) for v in obj.values())
        if isinstance(obj, list):
            return all(no_floats(v) for v in obj)
        return True

    assert no_floats(rep)
