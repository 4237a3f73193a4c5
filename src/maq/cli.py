"""Command-line front end.

Every subcommand prints a single JSON report with a provenance block
describing the computation that produced the result.  Exit codes: 0 on
success, 2 for parse errors, 3 for failed preconditions (with a witness
in the report), 4 for exceeded size bounds, 5 for an internal consistency
check that failed (a bug in maq, never a property of the input).
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .constructions import (PipelineIntegrityError, torsion_pipeline)
from .equivariant import (PreconditionFailed, action_report,
                          check_condition1, check_free,
                          coordinate_quotient_check, equivariant_limit)
from .formats import ParseError, complex_to_text, load_complex, load_subgroup
from .intlattice import TorusSubgroup
from .momentangle import (BoundExceeded, buchstaber_real, hochster,
                          skeleton_quotient_hrk, skeleton_wedge)
from .quotient import (CubicalQuotient, cubical_quotient_cohomology,
                       cw_census, koszul_cohomology, trc_report)
from .simplicial import SimplicialComplex, contraction, skeleton

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

def _cmd_hochster(args):
    K = load_complex(args.complex)
    groups = hochster(K, max_degree=args.max_degree, m_bound=args.bound_m)
    return {
        "operation": "hochster",
        "input": {"m": K.m, "facets": [sorted(f) for f in K.facets]},
        "provenance": _provenance(
            "full-subcomplex decomposition",
            "degree p collects the reduced cohomology of every full "
            "subcomplex K_I in degree p-|I|-1"),
        "groups": groups.to_json(),
    }


def _cmd_quotient_cohomology(args):
    K = load_complex(args.complex)
    H = load_subgroup(args.subgroup, K.m)
    if H.d == 2:
        groups = koszul_cohomology(K, H, max_degree=args.max_degree,
                                   cell_cap=args.cell_cap)
        prov = _provenance(
            "koszul complex over the quotient-torus polynomial ring",
            "the associated graded of the quotient's cohomology is the "
            "torsion product of the face ring against the base point, "
            "computed from the exterior algebra on a basis of the "
            "annihilator lattice")
        label = "associated graded"
    else:
        groups = cubical_quotient_cohomology(K, H, cell_cap=args.cell_cap)
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
    K = load_complex(args.complex)
    H = load_subgroup(args.subgroup, K.m)
    groups = equivariant_limit(K, H, args.max_degree)
    return {
        "operation": "equivariant",
        "input": {"m": K.m, "d": H.d, "max_degree": args.max_degree},
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
    except ValueError:
        raise ParseError("--i0 expects vertex numbers, got %r" % args.i0)
    Kc = contraction(K, I0)
    return {
        "operation": "contract",
        "input": {"m": K.m, "i0": sorted(I0)},
        "provenance": _provenance(
            "face contraction",
            "faces of the result are the images of faces under deleting "
            "the chosen vertices, re-indexed"),
        "m": Kc.m,
        "facets": [sorted(f) for f in sorted(Kc.facets,
                                             key=lambda f: (len(f),
                                                            sorted(f)))],
        "text": complex_to_text(Kc),
    }


def _cmd_skeleton_report(args):
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
        "betti": wedge.to_json(),
        "hrk": wedge.total(),
        "quotient_hrk": hrk,
        "bound": bound,
        "verdict": verdict,
    }


def _cmd_trc(args):
    K = load_complex(args.complex)
    H = load_subgroup(args.subgroup, K.m)
    rep = trc_report(K, H, max_degree=args.max_degree)
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
    value = buchstaber_real(K, m_bound=args.bound_m)
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
            "identification of the subdivided complex as a distinguished "
            "subcomplex of the nerve is consumed from the source "
            "construction, not re-verified"),
        "report": rep.to_json(),
    }
    if args.verify_cohomology:
        groups = koszul_cohomology(rep.nerve, rep.subgroup,
                                   max_degree=args.p + rep.m,
                                   cell_cap=args.cell_cap)
        out["verified_groups"] = groups.to_json()
    return out


def _random_complex(rng, m):
    nf = rng.randint(1, 2 * m)
    facets = []
    for _ in range(nf):
        size = rng.randint(1, max(1, m - 1))
        facets.append(frozenset(rng.sample(range(1, m + 1), size)))
    return SimplicialComplex(m, facets)


def oracle_suite(seed=0, max_m=5, cases=25):
    """Randomized cross-oracle batteries; failures carry their case data."""
    batteries = {}

    def run(name, fn):
        rng = random.Random((seed, name).__repr__())
        failures = []
        ran = 0
        while ran < cases:
            m = rng.randint(2, max_m)
            K = _random_complex(rng, m)
            try:
                ok, detail = fn(rng, m, K)
            except Exception as exc:     # noqa: BLE001 - failures are data
                ok, detail = False, repr(exc)
            if ok is None:
                continue                 # precondition not met; redraw
            ran += 1
            if not ok:
                failures.append({"m": m,
                                 "facets": [sorted(f) for f in K.facets],
                                 "detail": detail})
        return {"cases": ran, "failures": failures}

    def battery_koszul(rng, m, K):
        H = TorusSubgroup.trivial(2, m)
        a = hochster(K)
        b = koszul_cohomology(K, H)
        return a == b, {"hochster": a.to_json(), "koszul": b.to_json()}

    def battery_chi(rng, m, K):
        gens = [[rng.randint(0, 1) for _ in range(m)]
                for _ in range(rng.randint(0, m))]
        H = TorusSubgroup.from_f2_span(m, gens)
        if not check_free(K, H)[0]:
            return None, None
        cq = CubicalQuotient(K, H)
        _, chi = cw_census(K, H)
        return chi == cq.euler_characteristic(), {
            "census_chi": chi, "cubical_chi": cq.euler_characteristic()}

    def battery_contraction(rng, m, K):
        size = rng.randint(0, m - 1)
        I0 = frozenset(rng.sample(range(1, m + 1), size))
        d = rng.choice((1, 2))
        max_degree = 2 * m if d == 2 else m
        ok = coordinate_quotient_check(K, I0, max_degree, d=d)
        return ok, {"i0": sorted(I0), "d": d}

    def battery_condition1(rng, m, K):
        d = rng.choice((1, 2))
        if d == 2:
            gens = [[rng.randint(-2, 2) for _ in range(m)]
                    for _ in range(rng.randint(0, m))]
            H = TorusSubgroup.from_annihilator(m, gens)
        else:
            gens = [[rng.randint(0, 1) for _ in range(m)]
                    for _ in range(rng.randint(0, m))]
            H = TorusSubgroup.from_f2_span(m, gens)
        a = check_condition1(K, H)[0]
        b = check_condition1(K, H, all_pairs=True)[0]
        return a == b, {"covers": a, "all_pairs": b}

    batteries["hochster_vs_koszul"] = run("koszul", battery_koszul)
    batteries["census_vs_cubical_chi"] = run("chi", battery_chi)
    batteries["coordinate_quotient_vs_contraction"] = run(
        "contraction", battery_contraction)
    batteries["condition_covers_vs_all_pairs"] = run(
        "condition1", battery_condition1)

    # deterministic battery: the skeleton family is torsion free and its
    # ranks match the wedge formula
    failures = []
    checked = 0
    for m in range(2, 7):
        for k in range(m - 1):
            checked += 1
            got = hochster(skeleton(m, k))
            want = skeleton_wedge(m, k)
            ranks = {d: g.free_rank for d, g in got.groups}
            torsion_free = all(not g.torsion for _, g in got.groups)
            if ranks != dict(want.counts) or not torsion_free:
                failures.append({"m": m, "k": k, "got": got.to_json()})
    batteries["skeleton_torsion_free"] = {"cases": checked,
                                          "failures": failures}

    ok = all(not b["failures"] for b in batteries.values())
    return {"seed": seed, "max_m": max_m, "pass": ok,
            "batteries": batteries}


def _cmd_oracle_suite(args):
    if args.max_m < 2:
        raise ParseError("--max-m must be at least 2, got %d" % args.max_m)
    summary = oracle_suite(seed=args.seed, max_m=args.max_m,
                           cases=args.cases)
    summary["operation"] = "oracle-suite"
    summary["provenance"] = _provenance(
        "randomized cross-oracle comparison",
        "independent computation pathways are compared on seeded random "
        "inputs; any disagreement is reported with its reproduction data")
    return summary


# -- argument plumbing -------------------------------------------------------

def _build_parser():
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
    p.add_argument("--bound-m", type=int, default=14)
    p.set_defaults(fn=_cmd_hochster)

    p = sub.add_parser("quotient-cohomology",
                       help="cohomology of the quotient by a subgroup")
    p.add_argument("--complex", required=True)
    p.add_argument("--subgroup", required=True)
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--cell-cap", type=int, default=2_000_000)
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
    p.add_argument("--max-degree", type=int, default=None)
    p.set_defaults(fn=_cmd_trc)

    p = sub.add_parser("buchstaber-real",
                       help="largest freely acting mod-2 subspace dimension")
    p.add_argument("complex")
    p.add_argument("--bound-m", type=int, default=12)
    p.set_defaults(fn=_cmd_buchstaber_real)

    p = sub.add_parser("torsion-build",
                       help="torsion-construction pipeline report")
    p.add_argument("--input", required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--verify-cohomology", action="store_true")
    p.add_argument("--cell-cap", type=int, default=2_000_000)
    p.set_defaults(fn=_cmd_torsion_build)

    p = sub.add_parser("oracle-suite", help="randomized cross-oracle "
                                            "batteries")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-m", type=int, default=5)
    p.add_argument("--cases", type=int, default=25)
    p.set_defaults(fn=_cmd_oracle_suite)

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
        print(json.dumps({"error": "bound", "message": str(exc)}),
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
