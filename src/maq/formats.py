"""Text formats for complexes and subgroups, plus builtin names.

Complex files: a `m=<int>` header line, then one facet per line as
space-separated vertex indices. `#` starts a comment. Builtins are
addressed as `builtin:rp2_6`, `builtin:skeleton(m,k)` and
`builtin:boundary_simplex(m)`.

Subgroup files: a `d=<1|2>` header; for d=2 an `annihilator:` line
followed by generator rows of the annihilator lattice (m integers each);
for d=1 a `subspace:` line followed by F2 generator rows of the subgroup.
"""

from __future__ import annotations

import re

from .intlattice import TorusSubgroup
from .simplicial import (SimplicialComplex, boundary_simplex, face_order,
                         skeleton, vertices)


class ParseError(Exception):
    pass


def _clean_lines(text):
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


_BUILTIN_RE = re.compile(r"^builtin:([a-z_0-9]+)(?:\(([^)]*)\))?$")


def builtin_complex(name):
    m = _BUILTIN_RE.match(name.strip())
    if not m:
        raise ParseError("unrecognized builtin %r" % name)
    kind, args = m.group(1), m.group(2)
    args = [a.strip() for a in args.split(",")] if args else []
    try:
        nums = [int(a) for a in args]
    except ValueError:
        raise ParseError("builtin arguments must be integers: %r" % name)
    if kind == "rp2_6":
        if nums:
            raise ParseError("rp2_6 takes no arguments")
        from .constructions import rp2_6
        return rp2_6()
    if kind == "skeleton":
        if len(nums) != 2:
            raise ParseError("skeleton needs (m, k)")
        build = skeleton
    elif kind == "boundary_simplex":
        if len(nums) != 1:
            raise ParseError("boundary_simplex needs (m)")
        build = boundary_simplex
    else:
        raise ParseError("unknown builtin %r" % kind)
    try:
        return build(*nums)
    except ValueError as exc:
        raise ParseError("%s: %s" % (name, exc))


def parse_complex(text):
    """SimplicialComplex from the text format."""
    lines = _clean_lines(text)
    if not lines or not lines[0].startswith("m="):
        raise ParseError("complex file must start with an m=<int> line")
    try:
        m = int(lines[0][2:])
    except ValueError:
        raise ParseError("bad vertex count %r" % lines[0])
    if m < 0:
        raise ParseError("vertex count must be nonnegative")
    facets = []
    for line in lines[1:]:
        try:
            vs = [int(t) for t in line.split()]
        except ValueError:
            raise ParseError("bad facet line %r" % line)
        if any(v < 1 or v > m for v in vs):
            raise ParseError("vertex out of range in %r" % line)
        if not vs:
            continue
        facets.append(frozenset(vs))
    if not facets:
        return SimplicialComplex.void(m)
    return SimplicialComplex(m, facets)


def load_complex(source):
    """Complex from a builtin: name or a file path."""
    if source.strip().startswith("builtin:"):
        return builtin_complex(source.strip())
    with open(source) as fh:
        return parse_complex(fh.read())


def parse_subgroup(text, m):
    lines = _clean_lines(text)
    if not lines or not lines[0].startswith("d="):
        raise ParseError("subgroup file must start with a d=<1|2> line")
    try:
        d = int(lines[0][2:])
    except ValueError:
        raise ParseError("bad d value %r" % lines[0])
    if d not in (1, 2):
        raise ParseError("d must be 1 or 2")
    keyword = "annihilator:" if d == 2 else "subspace:"
    if len(lines) < 2 or lines[1] != keyword:
        raise ParseError("expected a %r line" % keyword)
    rows = []
    for line in lines[2:]:
        try:
            row = [int(t) for t in line.split()]
        except ValueError:
            raise ParseError("bad generator row %r" % line)
        if len(row) != m:
            raise ParseError("generator row has %d entries, expected %d"
                             % (len(row), m))
        if d == 1 and any(x not in (0, 1) for x in row):
            raise ParseError("F2 generator rows must be 0/1")
        rows.append(row)
    if d == 2:
        return TorusSubgroup.from_annihilator(m, rows)
    return TorusSubgroup.from_f2_span(m, rows)


def load_subgroup(path, m):
    with open(path) as fh:
        return parse_subgroup(fh.read(), m)


def complex_to_text(K):
    lines = ["m=%d" % K.m]
    for F in sorted(K.facet_masks, key=face_order):
        lines.append(" ".join(map(str, vertices(F))))
    return "\n".join(lines) + "\n"
