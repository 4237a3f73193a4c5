import json

import pytest

from maq import constructions, equivariant, momentangle
from maq.cli import main
from maq.formats import (ParseError, builtin_complex, complex_to_text,
                         parse_complex, parse_subgroup)
from maq.homology import ChainComplex
from maq.quotient import KoszulComplex
from maq.simplicial import boundary_simplex

from conftest import swap_vertices


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
    assert H.d == 2 and len(H.ann) == 1
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


def test_cli_parse_error_exit_code(capsys, tmp_path):
    code, _, err = run_cli(capsys, "hochster", "no_such_file.txt")
    assert code == 2
    assert json.loads(err)["error"] == "parse"
    # a complex file needs its m=<int> header, even when its text names a
    # builtin
    cpath = tmp_path / "k.txt"
    cpath.write_text("builtin:rp2_6\n")
    code, out, err = run_cli(capsys, "hochster", str(cpath))
    assert code == 2 and not out
    assert json.loads(err)["error"] == "parse"


def test_cli_argument_errors_exit_as_parse_errors(capsys, tmp_path):
    spath = tmp_path / "h.txt"
    spath.write_text("d=1\nsubspace:\n1 1 1 1\n")
    for args in (("contract", "--complex", "builtin:boundary_simplex(3)",
                  "--i0", "a"),
                 ("hochster", "builtin:skeleton(3,5)"),
                 ("hochster", "builtin:boundary_simplex(1)"),
                 ("skeleton-report", "3", "5"),
                 ("contract", "--complex", "builtin:rp2_6", "--i0", "9"),
                 ("quotient-cohomology", "--complex",
                  "builtin:boundary_simplex(4)", "--subgroup", str(spath),
                  "--cell-cap", "-5"),
                 ("torsion-build", "--input", "builtin:rp2_6", "--p", "2",
                  "--verify-cohomology", "--cell-cap", "-5")):
        code, out, err = run_cli(capsys, *args)
        assert code == 2 and not out
        assert json.loads(err)["error"] == "parse"
        if "--cell-cap" in args:
            assert "--cell-cap" in json.loads(err)["message"]


@pytest.mark.parametrize("command", ["hochster", "quotient-cohomology",
                                     "equivariant"])
def test_cli_negative_max_degree_is_a_parse_error(capsys, tmp_path,
                                                  command):
    # a negative degree bound would cut every group and print an empty
    # answer; with the free diagonal circle on valid inputs it exits 2
    # naming the option, and prints nothing on stdout
    spath = tmp_path / "h.txt"
    spath.write_text("d=2\nannihilator:\n1 -1 0 0\n0 1 -1 0\n0 0 1 -1\n")
    K = "builtin:boundary_simplex(4)"
    args = ([K] if command == "hochster"
            else ["--complex", K, "--subgroup", str(spath)])
    code, out, err = run_cli(capsys, command, *args, "--max-degree", "0")
    assert code == 0
    code, out, err = run_cli(capsys, command, *args, "--max-degree", "-1")
    assert code == 2 and not out
    doc = json.loads(err)
    assert doc["error"] == "parse"
    assert doc["message"] == "--max-degree must be nonnegative, got -1"


def test_cli_parser_reuse_leaks_no_state(capsys):
    # main reuses one parser per process; a sequence of calls must print
    # what each call prints through a freshly built parser
    from maq import cli

    calls = [("--pretty", "hochster", "builtin:boundary_simplex(3)"),
             ("hochster", "builtin:boundary_simplex(3)"),
             ("skeleton-report", "4", "1"),
             ("hochster", "--max-degree", "3", "builtin:skeleton(4,0)"),
             ("contract", "--complex", "builtin:boundary_simplex(4)",
              "--no-such-flag"),
             ("contract", "--complex", "builtin:boundary_simplex(4)",
              "--i0", "1"),
             ("hochster", "builtin:boundary_simplex(3)")]

    def run(args):
        try:
            code = main(list(args))
        except SystemExit as exc:
            code = ("exit", exc.code)
        out = capsys.readouterr()
        return code, out.out, out.err

    reused = [run(args) for args in calls]
    fresh = []
    for args in calls:
        cli._build_parser.cache_clear()
        fresh.append(run(args))
    assert reused == fresh
    assert reused[4][0] == ("exit", 2)
    assert reused[0][1] != reused[1][1]   # --pretty did not stick
    assert json.loads(reused[0][1]) == json.loads(reused[1][1])
    assert cli._build_parser() is cli._build_parser()


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
    # Z_K of the void complex is empty, so its quotient has no cohomology
    # at either d, with or without a degree bound; hochster agrees
    cpath.write_text("m=3\n")
    code, out, _ = run_cli(capsys, "hochster", str(cpath))
    assert code == 0 and json.loads(out)["groups"] == {}
    identity = "d=2\nannihilator:\n1 0 0\n0 1 0\n0 0 1\n"
    for subgroup, extra in ((identity, ()),
                            (identity, ("--max-degree", "4")),
                            ("d=1\nsubspace:\n", ()),
                            ("d=1\nsubspace:\n1 1 0\n", ())):
        spath.write_text(subgroup)
        code, out, err = run_cli(capsys, "quotient-cohomology",
                                 "--complex", str(cpath),
                                 "--subgroup", str(spath), *extra)
        assert (code, err) == (0, "")
        assert json.loads(out)["groups"] == {}
    # the antipodal Z/2 on the real moment-angle complex of
    # boundary_simplex(4), the sphere S^3, has quotient RP^3; a degree
    # bound cuts the cubical groups as it cuts the Koszul ones
    spath.write_text("d=1\nsubspace:\n1 1 1 1\n")
    rp3 = {"0": {"rank": 1, "torsion": []}, "2": {"rank": 0, "torsion": [2]},
           "3": {"rank": 1, "torsion": []}}
    for top in (None, 3, 2, 1, 0):
        extra = () if top is None else ("--max-degree", str(top))
        code, out, err = run_cli(capsys, "quotient-cohomology", "--complex",
                                 "builtin:boundary_simplex(4)",
                                 "--subgroup", str(spath), *extra)
        assert (code, err) == (0, "")
        assert json.loads(out)["groups"] == {
            n: g for n, g in rp3.items() if top is None or int(n) <= top}


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


# (command line with the placeholders K and H for the complex and subgroup
# files, complex file, subgroup file, text the message must hold)
INPUT_FAILURES = [
    pytest.param(("buchstaber-real", "K"), "m=3\n", None,
                 "at least one vertex", id="buchstaber-real-void"),
    pytest.param(("torsion-build", "--input", "K", "--p", "2"),
                 "m=2\n1 2\n", None, "at least 3 vertices",
                 id="torsion-build-two-vertices"),
    pytest.param(("torsion-build", "--input", "K", "--p", "2"), "m=3\n",
                 None, "at least 3 vertices and a facet",
                 id="torsion-build-void"),
    pytest.param(("torsion-build", "--input", "K", "--p", "2"),
                 "m=3\n1 2 3\n", None, "K is a simplex",
                 id="torsion-build-simplex"),
    pytest.param(("torsion-build", "--input", "builtin:rp2_6", "--p", "3"),
                 None, None, "degrees 2..2", id="torsion-build-degree"),
    pytest.param(("trc", "--complex", "K", "--subgroup", "H"),
                 "m=3\n1 2\n2 3\n", "d=1\nsubspace:\n1 0 1\n",
                 "trc needs a d=2 subgroup, got d=1", id="trc-d1"),
    pytest.param(("trc", "--complex", "K", "--subgroup", "H"), "m=3\n",
                 "d=2\nannihilator:\n1 0 0\n0 1 0\n0 0 1\n",
                 "void complex", id="trc-void"),
]


@pytest.mark.parametrize("argv, complex_text, subgroup_text, message",
                         INPUT_FAILURES)
def test_cli_input_failures_exit_3_with_the_same_keys(
        capsys, tmp_path, argv, complex_text, subgroup_text, message):
    # every failed precondition exits 3, and its JSON on stderr has the
    # keys error, message and witness, the witness null when there is none
    files = {"K": complex_text, "H": subgroup_text}
    for name, text in files.items():
        if text is not None:
            (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if files.get(a) is not None else a
            for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    doc = json.loads(err)
    assert sorted(doc) == ["error", "message", "witness"]
    assert doc["error"] == "precondition"
    assert message in doc["message"]


def test_cli_bound_exit_code(capsys, tmp_path):
    cpath = tmp_path / "k.txt"
    spath = tmp_path / "h.txt"
    cpath.write_text("m=4\n1\n2\n3\n4\n")
    # the identity annihilator: the trivial subgroup, which acts freely
    spath.write_text("d=2\nannihilator:\n1 0 0 0\n0 1 0 0\n0 0 1 0\n"
                     "0 0 0 1\n")
    code, _, err = run_cli(capsys, "quotient-cohomology",
                           "--complex", str(cpath), "--subgroup", str(spath),
                           "--cell-cap", "10")
    assert code == 4
    doc = json.loads(err)
    assert doc["error"] == "bound"
    assert doc["message"].startswith("koszul: cell count 15")
    assert ((doc["layer"], doc["size"], doc["cap"], doc["degree"])
            == ("koszul", 15, 10, 2))
    # a bound counted once for the whole complex reaches no degree
    code, out, err = run_cli(capsys, "hochster",
                             "builtin:boundary_simplex(15)")
    assert (code, out) == (4, "")
    assert json.loads(err) == {
        "error": "bound", "message": "hochster: m=15 exceeds bound 14",
        "layer": "hochster", "size": 15, "cap": 14, "degree": None}


def test_cli_internal_error_exit_code(capsys, monkeypatch, tmp_path):
    # a sign flipped in d(u_1 u_2) breaks the Koszul dd-check; the CLI
    # reports an internal error, not a precondition failure or a traceback
    steps = KoszulComplex._steps

    def planted(self, S):
        out = steps(self, S)
        return [(out[0][0], -out[0][1])] + out[1:] if S == 0b11 else out

    monkeypatch.setattr(KoszulComplex, "_steps", planted)
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


def test_cli_classifying_diagram_failure_is_internal(capsys, monkeypatch,
                                                     tmp_path):
    # a non-functorial arrow in the diagram the engine builds itself is a
    # bug, not a failed precondition: exit 5, not 3
    real = equivariant.PosetDiagram

    def planted(faces, ranks, arrows, max_degree, mod):
        # {1} < {1, 2}; the graded arrow is shared with other covers, so
        # the planted degree goes into a copy
        arrows[0b1, 0b11] = {**arrows[0b1, 0b11], 2: {(0, 0): 2}}
        return real(faces=faces, ranks=ranks, arrows=arrows,
                    max_degree=max_degree, mod=mod)

    monkeypatch.setattr(equivariant, "PosetDiagram", planted)
    cpath = tmp_path / "k.txt"
    spath = tmp_path / "h.txt"
    cpath.write_text("m=3\n1 2 3\n")
    spath.write_text("d=2\nannihilator:\n1 0 0\n0 1 0\n0 0 1\n")
    code, out, err = run_cli(capsys, "equivariant", "--complex", str(cpath),
                             "--subgroup", str(spath), "--max-degree", "2")
    assert code == 5
    assert out == ""
    doc = json.loads(err)
    assert doc["error"] == "internal"
    assert "not functorial" in doc["message"]


def test_cli_engine_value_error_is_internal(capsys, monkeypatch):
    # a ValueError that leaves the engine is a bug in maq, not a failed
    # precondition: hochster's chain complexes, rebuilt with check=True and
    # the sign of one edge's boundary flipped, fail the dd-check, exit 5
    build = momentangle.face_chain_complex

    def planted(masks):
        C = build(masks)
        boundaries = [dict(b) for b in C.boundaries[1:]]
        if len(boundaries) > 1:
            key = min(boundaries[1])
            boundaries[1][key] = -boundaries[1][key]
        return ChainComplex(C.dims, boundaries, min_degree=C.min_degree,
                            check=True)

    monkeypatch.setattr(momentangle, "face_chain_complex", planted)
    code, out, err = run_cli(capsys, "hochster", "builtin:boundary_simplex(3)")
    assert (code, out) == (5, "")
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


def test_cli_witnesses_follow_the_face_order(capsys, tmp_path):
    # on skeleton(6,2), by the d=1 span rows 100001 and 001100 and by the
    # d=2 annihilator with the rows 100001, 010000, 001100 and 000010, the
    # first failing facet in face order (by size, then vertex list) is
    # [1, 2, 6], and the first failing covering pair is ([6], [1, 6]);
    # the order of the masks as ints would give the facet [1, 3, 4]
    span = tmp_path / "d1.txt"
    span.write_text("d=1\nsubspace:\n1 0 0 0 0 1\n0 0 1 1 0 0\n")
    ann = tmp_path / "d2.txt"
    ann.write_text("d=2\nannihilator:\n1 0 0 0 0 1\n0 1 0 0 0 0\n"
                   "0 0 1 1 0 0\n0 0 0 0 1 0\n")
    for spath in (span, ann):
        code, out, _ = run_cli(capsys, "check", "--complex",
                               "builtin:skeleton(6,2)",
                               "--subgroup", str(spath))
        assert code == 0
        report = json.loads(out)["report"]
        assert report["free_witness"] == [1, 2, 6]
        assert report["condition1_witness"] == [[6], [1, 6]]
        code, out, err = run_cli(capsys, "quotient-cohomology", "--complex",
                                 "builtin:skeleton(6,2)",
                                 "--subgroup", str(spath))
        assert (code, out) == (3, "")
        assert json.loads(err)["witness"] == [1, 2, 6]


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


def test_cli_trc_rejects_the_void_complex(capsys, tmp_path):
    # Z_K of the void complex is empty: there is no quotient whose total
    # rank could be held against the bound, so trc fails its precondition
    # (exit 3) instead of reporting hrk 0 against 1 as a false verdict
    cpath = tmp_path / "k.txt"
    spath = tmp_path / "h.txt"
    cpath.write_text("m=3\n")
    spath.write_text("d=2\nannihilator:\n1 0 0\n0 1 0\n0 0 1\n")
    code, out, err = run_cli(capsys, "trc", "--complex", str(cpath),
                             "--subgroup", str(spath))
    assert code == 3
    assert out == ""
    doc = json.loads(err)
    assert doc["error"] == "precondition"
    assert "void complex" in doc["message"]


def test_cli_trc_has_no_degree_cutoff(tmp_path):
    # a total rank cut at a degree is only a lower bound: on S^7 by the
    # diagonal circle, degree 0 alone gives hrk 1 against the bound 2, a
    # false verdict; so trc takes no --max-degree and argparse rejects it
    # with exit 2
    spath = tmp_path / "h.txt"
    spath.write_text("d=2\nannihilator:\n1 -1 0 0\n0 1 -1 0\n0 0 1 -1\n")
    with pytest.raises(SystemExit) as exc:
        main(["trc", "--complex", "builtin:boundary_simplex(4)",
              "--subgroup", str(spath), "--max-degree", "0"])
    assert exc.value.code == 2
    # likewise hochster and buchstaber-real take no --bound-m: their
    # vertex bounds are fixed, and argparse rejects the flag with exit 2
    for command in ("hochster", "buchstaber-real"):
        with pytest.raises(SystemExit) as exc:
            main([command, "builtin:boundary_simplex(4)", "--bound-m", "20"])
        assert exc.value.code == 2
    # the randomized cross-checks of independent pathways are tier-1
    # tests, not a subcommand: argparse rejects the name with exit 2
    with pytest.raises(SystemExit) as exc:
        main(["oracle-suite"])
    assert exc.value.code == 2


def test_cli_buchstaber_real(capsys):
    code, out, _ = run_cli(capsys, "buchstaber-real",
                           "builtin:boundary_simplex(4)")
    assert code == 0
    assert json.loads(out)["value"] == 1


def test_cli_torsion_build(capsys):
    code, out, _ = run_cli(capsys, "torsion-build", "--input", "builtin:rp2_6",
                           "--p", "2")
    assert code == 0
    assert json.loads(out)["provenance"]["statement"].endswith(
        "full subcomplex on its vertices is checked")
    doc = json.loads(out)["report"]
    assert doc["m"] == 7
    assert doc["free"] is True
    assert doc["quotient_dim"] == 26


def test_cli_torsion_build_checks_the_nerve_holds_the_input(capsys,
                                                          monkeypatch):
    # a nerve with the labels 1 and m + 1 swapped is not K' on 1..m; the
    # nerve is built by maq, so that is a bug in maq (exit 5), not a
    # property of the input
    build = constructions.bosio_meersseman_nerve
    monkeypatch.setattr(constructions, "bosio_meersseman_nerve",
                        lambda Kp: swap_vertices(build(Kp), 1, Kp.m + 1))
    code, out, err = run_cli(capsys, "torsion-build", "--input",
                             "builtin:rp2_6", "--p", "2")
    assert (code, out) == (5, "")
    doc = json.loads(err)
    assert doc["error"] == "internal"
    assert "is not the subdivided input" in doc["message"]


def test_cli_torsion_build_rejects_degrees_without_torsion(capsys):
    # integral cohomology is free in degree 1 and zero above dim K, so on
    # the 2-dimensional rp2_6 torsion sits only in degree 2
    for p in ("-5", "0", "1", "3"):
        code, out, err = run_cli(capsys, "torsion-build", "--input",
                                 "builtin:rp2_6", "--p", p)
        assert (code, out) == (3, "")
        doc = json.loads(err)
        assert doc["error"] == "precondition"
        assert "degrees 2..2" in doc["message"]


def test_cli_torsion_build_verifies_cohomology(capsys):
    # the groups through degree q = 7 of the closed orientable 10-manifold
    # that test_torsion_pipeline_quotients_satisfy_poincare_duality checks
    code, out, _ = run_cli(capsys, "torsion-build", "--input",
                           "builtin:boundary_simplex(4)", "--p", "2",
                           "--verify-cohomology")
    assert code == 0
    doc = json.loads(out)
    assert (doc["report"]["q"], doc["report"]["quotient_dim"]) == (7, 10)
    z = {"rank": 1, "torsion": []}
    assert doc["verified_groups"] == {"0": z, "2": z, "3": z,
                                      "5": {"rank": 2, "torsion": []},
                                      "7": z}


def test_cli_quotient_requires_a_free_action(capsys, tmp_path):
    # the circle on the first coordinate of S^3, the moment-angle complex
    # of two points, fixes every point with z_1 = 0: its quotient is D^2,
    # not what the Koszul complex computes, so both commands exit 3 with
    # the facet {1} as witness
    spath = tmp_path / "h.txt"
    spath.write_text("d=2\nannihilator:\n0 1\n")
    for command in ("quotient-cohomology", "trc"):
        code, out, err = run_cli(capsys, command, "--complex",
                                 "builtin:boundary_simplex(2)",
                                 "--subgroup", str(spath))
        assert (code, out) == (3, "")
        doc = json.loads(err)
        assert doc["error"] == "precondition"
        assert doc["witness"] == [1]


def test_cli_output_file(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, "--output", str(target),
                           "hochster", "builtin:boundary_simplex(3)")
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["operation"] == "hochster"


def test_cli_output_to_a_missing_directory_is_a_parse_error(capsys,
                                                            tmp_path):
    # a report that cannot be written exits 2 with the parse-error JSON,
    # as an input file that cannot be read does, not with a traceback
    missing = tmp_path / "missing"
    for argv in (("--output", str(missing / "x.json"), "hochster",
                  "builtin:boundary_simplex(3)"),
                 ("hochster", str(missing / "k.txt"))):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        doc = json.loads(err)
        assert sorted(doc) == ["error", "message"]
        assert doc["error"] == "parse"
        assert "No such file or directory" in doc["message"]
    assert not missing.exists()
