import json

import pytest

from maq.cli import main
from maq.formats import (ParseError, builtin_complex, complex_to_text,
                         parse_complex, parse_subgroup)
from maq.quotient import KoszulComplex
from maq.simplicial import boundary_simplex


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_complex_roundtrip():
    K = boundary_simplex(4)
    assert parse_complex(complex_to_text(K)) == K
    K2 = parse_complex("m=3\n# a comment\n1 2\n2 3\n")
    assert K2.m == 3
    assert len(K2.facets) == 2


def test_parse_complex_errors():
    with pytest.raises(ParseError):
        parse_complex("1 2\n")  # missing header
    with pytest.raises(ParseError):
        parse_complex("m=2\n1 3\n")  # vertex out of range
    with pytest.raises(ParseError):
        parse_complex("m=x\n")


def test_builtin_complexes():
    assert builtin_complex("builtin:boundary_simplex(4)") == \
        boundary_simplex(4)
    K = builtin_complex("builtin:skeleton(5,1)")
    assert K.f_vector() == (5, 10)
    assert builtin_complex("builtin:rp2_6").m == 6
    with pytest.raises(ParseError):
        builtin_complex("builtin:mystery(3)")


def test_parse_subgroup():
    H = parse_subgroup("d=2\nannihilator:\n1 -1 0\n", 3)
    assert H.d == 2 and H.ann.rank() == 1
    W = parse_subgroup("d=1\nsubspace:\n1 1\n", 2)
    assert W.d == 1
    with pytest.raises(ParseError):
        parse_subgroup("d=3\n", 2)
    with pytest.raises(ParseError):
        parse_subgroup("d=2\nannihilator:\n1 2 3 4\n", 3)


def test_cli_hochster(capsys):
    code, out, _ = run_cli(capsys, "hochster", "builtin:boundary_simplex(3)")
    assert code == 0
    doc = json.loads(out)
    assert doc["operation"] == "hochster"
    assert doc["groups"]["5"] == {"rank": 1, "torsion": []}
    assert "provenance" in doc


def test_cli_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "hochster", "no_such_file.txt")
    assert code == 2
    assert json.loads(err)["error"] == "parse"


def test_cli_argument_errors_exit_as_parse_errors(capsys):
    for args in (("contract", "--complex", "builtin:boundary_simplex(3)",
                  "--i0", "a"),
                 ("oracle-suite", "--max-m", "1")):
        code, out, err = run_cli(capsys, *args)
        assert code == 2 and not out
        assert json.loads(err)["error"] == "parse"


def test_cli_quotient_cohomology(capsys, tmp_path):
    cpath = tmp_path / "k.txt"
    spath = tmp_path / "h.txt"
    cpath.write_text("m=2\n1\n2\n")
    spath.write_text("d=2\nannihilator:\n1 1\n0 2\n")
    code, out, _ = run_cli(capsys, "quotient-cohomology",
                           "--complex", str(cpath), "--subgroup", str(spath))
    assert code == 0
    doc = json.loads(out)
    assert doc["groups"]["2"] == {"rank": 0, "torsion": [2]}
    assert doc["groups"]["3"] == {"rank": 1, "torsion": []}


def test_cli_precondition_exit_code(capsys, tmp_path):
    cpath = tmp_path / "k.txt"
    spath = tmp_path / "h.txt"
    cpath.write_text("m=2\n1 2\n")
    spath.write_text("d=2\nannihilator:\n1 -1\n")
    code, _, err = run_cli(capsys, "quotient-cohomology",
                           "--complex", str(cpath), "--subgroup", str(spath))
    assert code == 3
    doc = json.loads(err)
    assert doc["error"] == "precondition"
    assert "witness" in doc


def test_cli_bound_exit_code(capsys, tmp_path):
    cpath = tmp_path / "k.txt"
    spath = tmp_path / "h.txt"
    cpath.write_text("m=4\n1\n2\n3\n4\n")
    spath.write_text("d=2\nannihilator:\n")
    code, _, err = run_cli(capsys, "quotient-cohomology",
                           "--complex", str(cpath), "--subgroup", str(spath),
                           "--cell-cap", "10")
    assert code == 4
    assert json.loads(err)["error"] == "bound"


def test_cli_internal_error_exit_code(capsys, monkeypatch, tmp_path):
    # a planted entry in d^2 breaks the Koszul dd-check; the CLI reports
    # an internal error, not a precondition failure or a traceback
    assemble = KoszulComplex._assemble

    def planted(self, n):
        d = assemble(self, n)
        if n == 2:
            row = next(r for r, _ in self.differential(1))
            d[(0, row)] = d.get((0, row), 0) + 1
        return d

    monkeypatch.setattr(KoszulComplex, "_assemble", planted)
    spath = tmp_path / "h.txt"
    spath.write_text("d=2\nannihilator:\n1 -1 0\n0 1 -1\n")
    code, out, err = run_cli(capsys, "quotient-cohomology", "--complex",
                             "builtin:boundary_simplex(3)",
                             "--subgroup", str(spath))
    assert code == 5
    assert out == ""
    doc = json.loads(err)
    assert doc["error"] == "internal"
    assert "dd != 0" in doc["message"]


def test_cli_check(capsys, tmp_path):
    cpath = tmp_path / "k.txt"
    spath = tmp_path / "h.txt"
    cpath.write_text("m=2\n1 2\n")
    spath.write_text("d=2\nannihilator:\n1 -1\n")
    code, out, _ = run_cli(capsys, "check",
                           "--complex", str(cpath), "--subgroup", str(spath))
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["free"] is False
    assert doc["report"]["condition1"] is False


def test_cli_contract(capsys):
    code, out, _ = run_cli(capsys, "contract",
                           "--complex", "builtin:boundary_simplex(3)",
                           "--i0", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["m"] == 2
    assert doc["facets"] == [[1, 2]]


def test_cli_skeleton_report(capsys):
    code, out, _ = run_cli(capsys, "skeleton-report", "4", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["hrk"] == 8
    assert doc["bound"] == 4
    assert doc["betti"]["5"] == 4


def test_cli_trc(capsys, tmp_path):
    spath = tmp_path / "h.txt"
    spath.write_text("d=2\nannihilator:\n1 0\n0 1\n")
    code, out, _ = run_cli(capsys, "trc",
                           "--complex", "builtin:boundary_simplex(2)",
                           "--subgroup", str(spath))
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["verdict"] is True


def test_cli_buchstaber_real(capsys):
    code, out, _ = run_cli(capsys, "buchstaber-real",
                           "builtin:boundary_simplex(4)")
    assert code == 0
    assert json.loads(out)["value"] == 1


def test_cli_torsion_build(capsys):
    code, out, _ = run_cli(capsys, "torsion-build", "--input", "builtin:rp2_6",
                           "--p", "2")
    assert code == 0
    doc = json.loads(out)["report"]
    assert doc["m"] == 7
    assert doc["free"] is True
    assert doc["quotient_dim"] == 26


def test_cli_oracle_suite(capsys):
    code, out, _ = run_cli(capsys, "oracle-suite", "--seed", "1",
                           "--max-m", "4", "--cases", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert all(not b["failures"] for b in doc["batteries"].values())


def test_cli_output_file(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, "--output", str(target),
                           "hochster", "builtin:boundary_simplex(3)")
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["operation"] == "hochster"
