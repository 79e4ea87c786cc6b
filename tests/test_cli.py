import dataclasses
import json

import pytest

from shellball import bounds
from shellball.cli import main
from shellball.complexes import build_complex, complex_from_text_with_order, complex_to_text
from shellball.paths import MinorSpec, path_complex
from shellball.polarization import power_ideal_complex
from tests.test_complexes import MINOR23, SPHERE23


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_complex(path, facets, order=None):
    """Write the complex on 6 vertices, its facet lines in `order` (default: canonical)."""
    cx = build_complex(facets, 6)
    path.write_text(complex_to_text(cx, order or range(len(cx.facets))))


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
    code, _, err = run(capsys, "generate", "minor", "m=2", "n=3", "r=3")
    assert code == 2
    assert err == "error: need 1 <= r <= m, got r=3, m=2\n"


def test_r_shorthand_accepts_the_minors_sigma_accepts(capsys):
    # r=m is the minor [1..m | 1..m]; both spellings report it the same way
    code, stdout, _ = run(capsys, "check", "minor", "m=3", "n=4", "r=3")
    code_sigma, stdout_sigma, _ = run(capsys, "check", "minor", "m=3", "n=4", "sigma=1,2,3|1,2,3")
    assert code == code_sigma == 3
    rep, rep_sigma = json.loads(stdout), json.loads(stdout_sigma)
    assert rep.pop("instance") == "minor m=3 n=4 r=3"
    assert rep_sigma.pop("instance") == "minor m=3 n=4 sigma=1,2,3|1,2,3"
    assert rep == rep_sigma and rep["verdict"] == "INAPPLICABLE"


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


def test_check_past_the_cube_vertex_bound_exit_3(capsys):
    code, stdout, stderr = run(capsys, "check", "minor", "m=5", "n=7", "r=3")
    assert code == 3 and stderr == ""
    rep = json.loads(stdout)
    assert rep["ball_pass"] and rep["boundary_h"] is None and rep["verdict"] == "INAPPLICABLE"
    assert rep["reasons"] == ["boundary has 35 used vertices, past the count bound 30"]


def test_check_sphere_file(tmp_path, capsys):
    path = tmp_path / "sphere.cx"
    write_complex(path, SPHERE23)
    code, stdout, _ = run(capsys, "check", "--file", str(path))
    assert code == 3
    rep = json.loads(stdout)
    assert rep["verdict"] == "INAPPLICABLE"
    assert any("no boundary" in r for r in rep["reasons"])


def test_check_ball_file(tmp_path, capsys):
    path = tmp_path / "ball.cx"
    write_complex(path, MINOR23)
    code, stdout, _ = run(capsys, "check", "--file", str(path))
    assert code == 0
    assert json.loads(stdout)["verdict"] == "PASS"


def test_generate_then_check_roundtrip_uses_sidecar_order(tmp_path, capsys):
    # generate writes no sidecar: the certified order is the order of the file's lines.
    # The polar's order is not the canonical one, which fails the ball check.
    instances = [
        (["minor", "m=3", "n=4", "r=2"], path_complex(MinorSpec.diagonal(3, 4, 2))),
        (["polar", "n=3", "t=3"], power_ideal_complex(3, 3)),
    ]
    for params, (cx, order) in instances:
        out = tmp_path / "gen.cx"
        code, stdout, _ = run(capsys, "generate", *params, "--out", str(out))
        assert code == 0
        assert [p.name for p in tmp_path.iterdir()] == ["gen.cx"]
        assert complex_from_text_with_order(out.read_text()) == (cx, order)
        assert json.loads(stdout)["shelling_order"] == order
        code, stdout, _ = run(capsys, "check", "--file", str(out))
        rep = json.loads(stdout)
        assert rep["ball_pass"] and (code, rep["verdict"]) == (0, "PASS")
        _, stdout_kind, _ = run(capsys, "check", *params)
        assert {**json.loads(stdout_kind), "instance": rep["instance"]} == rep


def test_sidecar_order_that_fails_to_shell_reports_null_ball_data(tmp_path, capsys):
    # the file's lines give the order [0, 2, 1]; a sidecar beside it is not read
    path = tmp_path / "ball.cx"
    write_complex(path, MINOR23, [0, 2, 1])
    (tmp_path / "ball.cx.meta.json").write_text(json.dumps({"shelling_order": [0, 1, 2]}))
    code, stdout, _ = run(capsys, "check", "--file", str(path))
    assert code == 3
    rep = json.loads(stdout)
    assert (rep["f"], rep["h"], rep["m"], rep["A1"]) == (None, None, None, None)
    assert not rep["shelling_pass"] and rep["verdict"] == "INAPPLICABLE"
    code, stdout, _ = run(capsys, "check", "--file", str(path), "--format", "csv")
    assert code == 3
    assert stdout.splitlines()[1] == f"file {path},6,4,,8,,,,,INAPPLICABLE"
    code, stdout, _ = run(capsys, "check", "--file", str(path), "--format", "text")
    assert code == 3
    assert "\nh: None\n" in stdout


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
    for n in ("n=5", "n=4", "n=6"):
        code, stdout, _ = run(capsys, "corners", "m=4", n, "r=2")
        assert code == 0
        rep = json.loads(stdout)
        assert rep["spectrum"] == [2, 3, 4] and rep["matches"]
        assert [len(rep["constructions"][t]) for t in ("2", "3", "4")] == [2, 3, 4]


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


@pytest.mark.parametrize(
    "argv",
    [
        "check minor m=2 n=3 r=1 --format json",
        "check minor m=2 n=3 r=1 --format csv",
        "check minor m=2 n=3 r=1 --format text",
        "dual m=3 n=4",
        "corners m=4 n=5 r=2",
        "cyclic n=8 d=5",
    ],
)
def test_out_writes_what_stdout_would_show(tmp_path, capsys, argv):
    code, stdout, _ = run(capsys, *argv.split())
    out = tmp_path / "report"
    code_out, stdout_out, _ = run(capsys, *argv.split(), "--out", str(out))
    assert (code_out, stdout_out) == (code, "")
    assert out.read_bytes() == stdout.encode()


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
        ("check minor m=3 n=4 r=0", "error: need 1 <= r <= m, got r=0, m=3"),
        ("check minor m=3 n=4 r=4", "error: need 1 <= r <= m, got r=4, m=3"),
        (
            "check minor m=3 n=4 sigma=1,2|1",
            "error: rows and cols must be nonempty and of equal length",
        ),
        ("check minor m=3 n=4 sigma=1,4|1,2", "error: minor indices out of matrix range"),
        ("check polar n=0 t=1", "error: need n >= 1 and t >= 1"),
        ("check polar n=20 t=7", "error: grid size 140 exceeds vertex cap 128"),
        ("check minor m=12 n=12 r=1", "error: grid size 144 exceeds vertex cap 128"),
        (
            "generate minor m=3 n=4 r=1 --max-facets 0",
            "error: facet cap 0 exceeded (partial count 0)",
        ),
        ("check minor m=2 n=3 r=1 --max-facets -1", "error: need max_facets >= 0, got -1"),
        ("check minor m=2 n=3 r=1 --max-vertices -1", "error: need max_vertices >= 0, got -1"),
        ("dual m=1 n=3", "error: need 2 <= m <= n"),
        ("corners m=3 n=4 r=3", "error: need 1 <= r <= m-1 and m <= n"),
        ("cyclic n=5 d=5", "error: need n > d"),
        ("cyclic n=3 d=5", "error: need n >= d >= 1"),
    ],
)
def test_library_value_errors_exit_2(tmp_path, monkeypatch, capsys, argv, line):
    monkeypatch.chdir(tmp_path)
    code, stdout, err = run(capsys, *argv.split())
    assert (code, stdout, err) == (2, "", line + "\n")


@pytest.mark.parametrize(
    "argv, line",
    [
        (
            "check minor m=2 n=3 r=1 feild=2",
            "error: unknown parameter 'feild' (want m, n, r, sigma)",
        ),
        ("check minor m=3 n=4 r=1 sigma=1,2|1,2", "error: minor takes r or sigma, not both"),
        ("check minor m=2 n=3 r=1 r=2", "error: parameter r given twice"),
        ("check polar n=2 t=2 r=5", "error: unknown parameter 'r' (want n, t)"),
        ("generate polar n=2 t=2 r=5", "error: unknown parameter 'r' (want n, t)"),
        ("corners m=4 n=5 r=1 x=1", "error: unknown parameter 'x' (want m, n, r)"),
        ("cyclic n=8 d=5 q=1", "error: unknown parameter 'q' (want n, d)"),
        ("dual m=2 n=3 r=9", "error: unknown parameter 'r' (want m, n)"),
        ("check minor m=3 n4 r=1", "error: expected key=value, got 'n4'"),
        ("check", "error: check needs a kind (minor|polar) or --file"),
    ],
)
def test_stray_parameters_are_usage_errors(tmp_path, monkeypatch, capsys, argv, line):
    monkeypatch.chdir(tmp_path)  # generate would write into the working directory
    code, stdout, err = run(capsys, *argv.split())
    assert (code, stdout, err) == (2, "", line + "\n")
    assert not list(tmp_path.iterdir())


def test_missing_file_is_io_error(tmp_path, capsys):
    code, stdout, err = run(capsys, "check", "--file", str(tmp_path / "missing.cx"))
    assert (code, stdout) == (2, "")
    assert err.startswith("i/o error:")


def test_fail_verdict_exits_1(monkeypatch, capsys):
    # no corpus instance gives FAIL, so a PASS report is relabelled
    passing = bounds.check_conjecture(*path_complex(MinorSpec.diagonal(2, 3, 1)))
    assert passing.verdict == "PASS"
    failing = dataclasses.replace(passing, verdict="FAIL")
    monkeypatch.setattr(bounds, "check_conjecture", lambda *args, **kwargs: failing)
    code, stdout, err = run(capsys, "check", "minor", "m=2", "n=3", "r=1")
    assert (code, err) == (1, "")
    assert json.loads(stdout) == {**failing.to_json_dict(), "seed": 0}


def test_internal_fault_exits_4(monkeypatch, capsys):
    # no corpus instance trips an internal check, so one is made to fail
    def broken(*args, **kwargs):
        raise ArithmeticError("certified h disagrees with the f-vector")

    monkeypatch.setattr(bounds, "check_conjecture", broken)
    code, stdout, err = run(capsys, "check", "minor", "m=2", "n=3", "r=1")
    assert (code, stdout, err) == (
        4,
        "",
        "internal error: certified h disagrees with the f-vector\n",
    )


def test_kind_with_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "ball.cx"
    write_complex(path, MINOR23)
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
        ("n=3\n0 1\n0 0 1\n", "line 3: expected distinct vertex indices, got '0 0 1'"),
        (
            "n=3\nlabels=a,b\n0 1 2\n",
            "line 2: expected 3 distinct comma-separated labels, got 'labels=a,b'",
        ),
        (
            "# ball\nn=3\nlabels=a,b,a\n0 1 2\n",
            "line 3: expected 3 distinct comma-separated labels, got 'labels=a,b,a'",
        ),
        ("n=3\nlabels=a,b,c\n# no facets\n", "line 4: expected a facet line, got end of file"),
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
