"""Command-line front end.

Every subcommand prints a single JSON report with a provenance block
describing the computation that produced the result.  Exit codes: 0 on
success, 2 for parse errors, 3 for failed preconditions (with a witness
in the report), 4 for exceeded size bounds (the layer, size, cap and
degree of the bound in the report), 5 for an internal consistency
check that failed (a bug in maq, never a property of the input).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .constructions import (PipelineIntegrityError, torsion_pipeline)
from .equivariant import PreconditionFailed, action_report, equivariant_limit
from .formats import ParseError, complex_to_text, load_complex, load_subgroup
from .homology import GradedAbGroup
from .momentangle import (BoundExceeded, buchstaber_real, hochster,
                          skeleton_quotient_hrk, skeleton_wedge)
from .quotient import (CELL_CAP, cubical_quotient_cohomology,
                       koszul_cohomology, trc_report)
from .simplicial import contraction, face_order, vertices

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_BOUND = 4
EXIT_INTERNAL = 5


def _provenance(method, statement):
    return {"engine": "exact integer arithmetic (Smith/Hermite forms)",
            "method": method, "statement": statement}


def _emit(report, args):
    text = json.dumps(report, indent=2 if getattr(args, "pretty", False)
                      else None, sort_keys=True)
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# -- subcommand bodies -------------------------------------------------------

def _nonnegative(value, option):
    """``value`` of ``option``, ``--cell-cap`` or ``--max-degree``, which
    bounds a count of cells or a degree, so it is not negative; None when
    the option is not given."""
    if value is not None and value < 0:
        raise ParseError("%s must be nonnegative, got %d" % (option, value))
    return value


def _cmd_hochster(args):
    max_degree = _nonnegative(args.max_degree, "--max-degree")
    K = load_complex(args.complex)
    groups = hochster(K, max_degree=max_degree)
    return {
        "operation": "hochster",
        "input": {"m": K.m, "facets": list(map(vertices, K.facet_masks))},
        "provenance": _provenance(
            "full-subcomplex decomposition",
            "degree p collects the reduced cohomology of every full "
            "subcomplex K_I in degree p-|I|-1"),
        "groups": groups.to_json(),
    }


def _cmd_quotient_cohomology(args):
    cell_cap = _nonnegative(args.cell_cap, "--cell-cap")
    max_degree = _nonnegative(args.max_degree, "--max-degree")
    K = load_complex(args.complex)
    H = load_subgroup(args.subgroup, K.m)
    if H.d == 2:
        groups = koszul_cohomology(K, H, max_degree=max_degree,
                                   cell_cap=cell_cap)
        prov = _provenance(
            "koszul complex over the quotient-torus polynomial ring",
            "the associated graded of the quotient's cohomology is the "
            "torsion product of the face ring against the base point, "
            "computed from the exterior algebra on a basis of the "
            "annihilator lattice")
        label = "associated graded"
    else:
        groups = cubical_quotient_cohomology(K, H, cell_cap=cell_cap)
        if max_degree is not None:
            groups = GradedAbGroup.make({n: g for n, g in groups.groups
                                         if n <= max_degree})
        prov = _provenance(
            "cubical cell model",
            "cellular cohomology of the orbit complex of the cubical "
            "model of the real polyhedral product under the free action")
        label = "cellular"
    return {
        "operation": "quotient-cohomology",
        "input": {"m": K.m, "d": H.d},
        "kind": label,
        "provenance": prov,
        "groups": groups.to_json(),
    }


def _cmd_equivariant(args):
    max_degree = _nonnegative(args.max_degree, "--max-degree")
    K = load_complex(args.complex)
    H = load_subgroup(args.subgroup, K.m)
    groups = equivariant_limit(K, H, max_degree)
    return {
        "operation": "equivariant",
        "input": {"m": K.m, "d": H.d, "max_degree": max_degree},
        "provenance": _provenance(
            "inverse limit over the face poset",
            "equivariant cohomology of the quotient equals the degreewise "
            "limit of the classifying-space cohomology of the face-wise "
            "quotient quasitori"),
        "groups": groups.to_json(),
    }


def _cmd_check(args):
    K = load_complex(args.complex)
    H = load_subgroup(args.subgroup, K.m)
    rep = action_report(K, H)
    return {
        "operation": "check",
        "input": {"m": K.m, "d": H.d},
        "provenance": _provenance(
            "coordinate-subgroup arithmetic",
            "freeness holds iff the subgroup meets every facet's "
            "coordinate subgroup trivially; compatibility asks the "
            "coordinate projections to respect the subgroup along "
            "covering pairs of faces"),
        "report": rep.to_json(),
    }


def _cmd_contract(args):
    K = load_complex(args.complex)
    try:
        I0 = frozenset(int(t) for t in args.i0.replace(",", " ").split())
        Kc = contraction(K, I0)
    except ValueError:
        raise ParseError("--i0 expects vertex numbers in 1..%d, got %r"
                         % (K.m, args.i0))
    return {
        "operation": "contract",
        "input": {"m": K.m, "i0": sorted(I0)},
        "provenance": _provenance(
            "face contraction",
            "faces of the result are the images of faces under deleting "
            "the chosen vertices, re-indexed"),
        "m": Kc.m,
        "facets": [vertices(F) for F in sorted(Kc.facet_masks,
                                                key=face_order)],
        "text": complex_to_text(Kc),
    }


def _cmd_skeleton_report(args):
    if args.m < 2 or not 0 <= args.k <= args.m - 2:
        raise ParseError("skeleton-report needs m >= 2 and 0 <= k <= m-2")
    wedge = skeleton_wedge(args.m, args.k)
    hrk, bound, verdict = skeleton_quotient_hrk(args.m, args.k)
    return {
        "operation": "skeleton-report",
        "input": {"m": args.m, "k": args.k},
        "provenance": _provenance(
            "wedge decomposition of skeleton moment-angle complexes",
            "the moment-angle complex of a simplex skeleton is a wedge of "
            "spheres with binomial multiplicities; quotient ranks follow "
            "a recursion over vertex deletion"),
        "betti": {str(d): c for d, c in wedge.items()},
        "hrk": sum(wedge.values()),
        "quotient_hrk": hrk,
        "bound": bound,
        "verdict": verdict,
    }


def _cmd_trc(args):
    K = load_complex(args.complex)
    H = load_subgroup(args.subgroup, K.m)
    rep = trc_report(K, H)
    return {
        "operation": "trc",
        "input": {"m": K.m},
        "provenance": _provenance(
            "total-rank bound",
            "the sum of rational betti numbers of the quotient is "
            "compared against 2 to the rank of the acting torus"),
        "report": rep.to_json(),
    }


def _cmd_buchstaber_real(args):
    K = load_complex(args.complex)
    value = buchstaber_real(K)
    return {
        "operation": "buchstaber-real",
        "input": {"m": K.m},
        "provenance": _provenance(
            "exhaustive subspace search",
            "the largest dimension of a mod-2 subspace meeting every "
            "facet's coordinate subspace trivially"),
        "value": value,
    }


def _cmd_torsion_build(args):
    cell_cap = _nonnegative(args.cell_cap, "--cell-cap")
    K = load_complex(args.input)
    rep = torsion_pipeline(K, args.p)
    out = {
        "operation": "torsion-build",
        "provenance": _provenance(
            "nerve-of-truncations construction",
            "stellar subdivision, face truncations dual to the minimal "
            "non-faces, and a coordinate-gluing circle produce a free "
            "action whose quotient is predicted to carry the input's "
            "torsion in degree p plus the subdivided vertex count; the "
            "identification of the subdivided complex as the nerve's full "
            "subcomplex on its vertices is checked"),
        "report": rep.to_json(),
    }
    if args.verify_cohomology:
        groups = koszul_cohomology(rep.nerve, rep.subgroup,
                                   max_degree=args.p + rep.m,
                                   cell_cap=cell_cap)
        out["verified_groups"] = groups.to_json()
    return out


# -- argument plumbing -------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _build_parser():
    """The argument parser, built once per process: parse_args leaves it
    unchanged and returns a fresh namespace on every call."""
    top = argparse.ArgumentParser(
        prog="maq",
        description="exact cohomology of moment-angle complexes and their "
                    "quotients by closed torus subgroups")
    top.add_argument("--pretty", action="store_true",
                     help="indent the JSON report")
    top.add_argument("--output", help="write the report to a file")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hochster", help="cohomology of the moment-angle "
                                        "complex")
    p.add_argument("complex")
    p.add_argument("--max-degree", type=int, default=None)
    p.set_defaults(fn=_cmd_hochster)

    p = sub.add_parser("quotient-cohomology",
                       help="cohomology of the quotient by a subgroup")
    p.add_argument("--complex", required=True)
    p.add_argument("--subgroup", required=True)
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--cell-cap", type=int, default=CELL_CAP)
    p.set_defaults(fn=_cmd_quotient_cohomology)

    p = sub.add_parser("equivariant", help="equivariant cohomology as a "
                                           "poset limit")
    p.add_argument("--complex", required=True)
    p.add_argument("--subgroup", required=True)
    p.add_argument("--max-degree", type=int, required=True)
    p.set_defaults(fn=_cmd_equivariant)

    p = sub.add_parser("check", help="freeness and projection-compatibility "
                                     "report")
    p.add_argument("--complex", required=True)
    p.add_argument("--subgroup", required=True)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("contract", help="contraction of a complex at a "
                                        "vertex set")
    p.add_argument("--complex", required=True)
    p.add_argument("--i0", required=True,
                   help="vertices to contract, e.g. '1 2'")
    p.set_defaults(fn=_cmd_contract)

    p = sub.add_parser("skeleton-report",
                       help="wedge ranks and quotient rank bound for "
                            "simplex skeletons")
    p.add_argument("m", type=int)
    p.add_argument("k", type=int)
    p.set_defaults(fn=_cmd_skeleton_report)

    p = sub.add_parser("trc", help="total-rank verdict for a quotient")
    p.add_argument("--complex", required=True)
    p.add_argument("--subgroup", required=True)
    p.set_defaults(fn=_cmd_trc)

    p = sub.add_parser("buchstaber-real",
                       help="largest freely acting mod-2 subspace dimension")
    p.add_argument("complex")
    p.set_defaults(fn=_cmd_buchstaber_real)

    p = sub.add_parser("torsion-build",
                       help="torsion-construction pipeline report")
    p.add_argument("--input", required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--verify-cohomology", action="store_true")
    p.add_argument("--cell-cap", type=int, default=CELL_CAP)
    p.set_defaults(fn=_cmd_torsion_build)

    return top


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        report = args.fn(args)
    except (ParseError, OSError) as exc:
        print(json.dumps({"error": "parse", "message": str(exc)}),
              file=sys.stderr)
        return EXIT_PARSE
    except PreconditionFailed as exc:
        witness = exc.witness
        if isinstance(witness, tuple):
            witness = [sorted(w) for w in witness]
        elif witness is not None:
            witness = sorted(witness)
        print(json.dumps({"error": "precondition", "message": str(exc),
                          "witness": witness}), file=sys.stderr)
        return EXIT_PRECONDITION
    except (PipelineIntegrityError, ValueError) as exc:
        print(json.dumps({"error": "precondition", "message": str(exc)}),
              file=sys.stderr)
        return EXIT_PRECONDITION
    except BoundExceeded as exc:
        print(json.dumps({"error": "bound", "message": str(exc),
                          "layer": exc.layer, "size": exc.size,
                          "cap": exc.cap, "degree": exc.degree}),
              file=sys.stderr)
        return EXIT_BOUND
    except AssertionError as exc:
        print(json.dumps({"error": "internal", "message": str(exc)}),
              file=sys.stderr)
        return EXIT_INTERNAL
    _emit(report, args)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
