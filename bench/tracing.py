"""Per-layer tracing of maq from outside the program.

``Tracer.install`` wraps the public functions and methods of every
``maq`` module (and any private function another module imports), in the
defining module, in every module that rebinds the name with
``from .x import ...``, and in the package namespace.  Each wrapper
records a span: calls, total time and self time (total minus the time of
wrapped calls it makes).  A layer is a module; a layer's self time is the
sum of its spans' self times, which is its time minus the time of its
calls into other layers.  Hooks on a few functions derive size counters
from arguments and results; their own cost is kept out of every span.
``uninstall`` restores the original objects.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "constructions", "equivariant", "exact", "formats",
          "homology", "intlattice", "momentangle", "quotient", "simplicial")

RAI = "exact.rank_and_invariants"
SNF = "exact.smith_normal_form"
HNF = ("exact.row_hnf", "exact.kernel_basis", "exact.hnf_solve")

# (name, unit) of every per-layer metric, in report order
PER_LAYER = [
    ("exact.rank_and_invariants.self_s", "s"),
    ("exact.rank_and_invariants.calls", "count"),
    ("exact.rank_and_invariants.nnz_in", "count"),
    ("exact.unit_pivots", "count"),
    ("exact.residue_cells", "count"),
    ("exact.max_entry_bits", "bits"),
    ("exact.smith_normal_form.self_s", "s"),
    ("exact.smith_normal_form.calls", "count"),
    ("exact.hnf.self_s", "s"),
    ("exact.hnf.calls", "count"),
    ("homology.simplicial_chain_complex.self_s", "s"),
    ("homology.cells", "count"),
    ("homology.boundary_nnz", "count"),
    ("homology.ChainComplex.self_s", "s"),
    ("homology.eliminations_per_boundary", "ratio"),
    ("homology.PosetDiagram.self_s", "s"),
    ("homology.limit_graded.self_s", "s"),
    ("simplicial.self_s", "s"),
    ("simplicial.full_subcomplex.calls", "count"),
    ("quotient.KoszulComplex.init_s", "s"),
    ("quotient.KoszulComplex.differential.self_s", "s"),
    ("quotient.KoszulComplex.cohomology.self_s", "s"),
    ("quotient.koszul_cells", "count"),
    ("quotient.koszul_nnz", "count"),
    ("quotient.CubicalQuotient.self_s", "s"),
    ("quotient.cubical_cells", "count"),
    ("equivariant.check_condition1.self_s", "s"),
    ("equivariant.build_classifying_diagram.self_s", "s"),
    ("equivariant.equivariant_limit.self_s", "s"),
    ("intlattice.self_s", "s"),
    ("momentangle.hochster.self_s", "s"),
    ("constructions.self_s", "s"),
    ("formats.self_s", "s"),
    ("cli.self_s", "s"),
] + [("%s.errors" % layer, "count") for layer in LAYERS] + [
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_s", "s"),
]


def _bits(values):
    return max((abs(v).bit_length() for v in values), default=0)


def _nonzeros(mat):
    return sum(len(row) - row.count(0) for row in mat)


class Tracer:
    def __init__(self):
        self.stack = []           # open frames: [key, layer, child_s, extra]
        self.spans = {}           # key -> [calls, total_s, self_s]
        self.counts = Counter()   # size counters, summed
        self.per_degree = Counter()   # (counter, degree) -> sum
        self.max_bits = 0
        self.residue_max = (0, 0, 0)   # (cells, rows, cols) of the largest
        self.errors = Counter()   # layer -> exceptions that left it
        self.top_s = 0.0          # time inside outermost spans
        self.hook_s = 0.0         # time spent in counter hooks
        self._undo = []

    # -- installation ------------------------------------------------------

    def install(self):
        package = importlib.import_module("maq")
        modules = [importlib.import_module("maq." + n) for n in LAYERS]
        imported = set()
        for mod in modules + [package]:
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ != mod.__name__:
                    imported.add(obj)
        wrapped = {}
        for mod in modules + [package]:
            for name, obj in list(vars(mod).items()):
                if not (inspect.isfunction(obj)
                        and obj.__module__.startswith("maq.")
                        and (not name.startswith("_") or obj in imported)
                        and not inspect.isgeneratorfunction(obj)):
                    continue
                if obj not in wrapped:
                    key = "%s.%s" % (obj.__module__[4:], obj.__qualname__)
                    wrapped[obj] = self._wrap(key, obj)
                self._set(mod, name, obj, wrapped[obj])
        for mod in modules:
            for obj in list(vars(mod).values()):
                if (inspect.isclass(obj) and obj.__module__ == mod.__name__
                        and not issubclass(obj, BaseException)):
                    self._wrap_class(mod.__name__[4:], obj)

    def uninstall(self):
        while self._undo:
            target, name, original = self._undo.pop()
            setattr(target, name, original)

    def _set(self, target, name, original, replacement):
        self._undo.append((target, name, original))
        setattr(target, name, replacement)

    def _wrap_class(self, layer, cls):
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            key = "%s.%s.%s" % (layer, cls.__qualname__, attr)
            if inspect.isfunction(val):
                if not inspect.isgeneratorfunction(val):
                    self._set(cls, attr, val, self._wrap(key, val))
            elif isinstance(val, (staticmethod, classmethod)):
                self._set(cls, attr, val,
                          type(val)(self._wrap(key, val.__func__)))
            elif isinstance(val, property) and val.fget is not None:
                getter = self._wrap(key, val.fget)
                self._set(cls, attr, val,
                          property(getter, val.fset, val.fdel, val.__doc__))
            elif isinstance(val, functools.cached_property):
                cached = functools.cached_property(self._wrap(key, val.func))
                cached.__set_name__(cls, attr)
                self._set(cls, attr, val, cached)

    def _wrap(self, key, fn):
        layer = key.split(".", 1)[0]
        hook = _HOOKS.get(key)
        materialize = key == RAI   # its entries may be a one-shot generator
        stack, spans = self.stack, self.spans
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [key, layer, 0.0, None]
            stack.append(frame)
            t0 = perf_counter()
            try:
                if materialize:
                    args = (list(args[0]),) + args[1:]
                result = fn(*args, **kwargs)
            except BaseException:
                if parent is None or parent[1] != layer:
                    tracer.errors[layer] += 1
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                rec = spans.get(key)
                if rec is None:
                    rec = spans[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[2]
                if parent is not None:
                    parent[2] += dt
                else:
                    tracer.top_s += dt
            if hook is not None:
                h0 = perf_counter()
                hook(tracer, frame, parent, args, result)
                h = perf_counter() - h0
                tracer.hook_s += h
                if parent is not None:
                    parent[2] += h   # keep hook work out of the caller's self
                else:
                    tracer.top_s += h
            return result

        return traced

    # -- metrics -----------------------------------------------------------

    def layer_metrics(self, walls, untraced_wall_s, scale):
        """Per-layer metrics per pass, given the raw traced pass times, the
        scaled time of an untraced pass, and the factor that scales raw
        seconds to the nominal host speed; counts repeat exactly for one
        seed."""
        sp = self.spans
        passes = len(walls)

        def total(keys, field):
            n = sum(sp[k][field] for k in sp if keys(k)) / passes
            return n if field == 0 else n * scale

        def calls(keys):
            return total(keys, 0)

        def self_s(keys):
            return total(keys, 2)

        def prefix(p):
            return lambda k: k.startswith(p)

        def one(name):
            return lambda k: k == name

        c = self.counts
        elim = c["homology.eliminations"]
        nonzero = c["homology.nonzero_boundaries"]
        out = {
            "exact.rank_and_invariants.self_s": self_s(one(RAI)),
            "exact.rank_and_invariants.calls": calls(one(RAI)),
            "exact.rank_and_invariants.nnz_in": c["exact.nnz_in"] / passes,
            "exact.unit_pivots": c["exact.unit_pivots"] / passes,
            "exact.residue_cells": c["exact.residue_cells"] / passes,
            "exact.max_entry_bits": self.max_bits,
            "exact.smith_normal_form.self_s": self_s(one(SNF)),
            "exact.smith_normal_form.calls": calls(one(SNF)),
            "exact.hnf.self_s": self_s(lambda k: k in HNF),
            "exact.hnf.calls": calls(lambda k: k in HNF),
            "homology.simplicial_chain_complex.self_s": self_s(
                one("homology.simplicial_chain_complex")),
            "homology.cells": c["homology.cells"] / passes,
            "homology.boundary_nnz": c["homology.boundary_nnz"] / passes,
            "homology.ChainComplex.self_s": self_s(
                prefix("homology.ChainComplex.")),
            "homology.eliminations_per_boundary":
                elim / nonzero if nonzero else 0.0,
            "homology.PosetDiagram.self_s": self_s(
                prefix("homology.PosetDiagram.")),
            "homology.limit_graded.self_s": self_s(
                one("homology.limit_graded")),
            "simplicial.self_s": self_s(prefix("simplicial.")),
            "simplicial.full_subcomplex.calls": calls(
                one("simplicial.full_subcomplex")),
            "quotient.KoszulComplex.init_s": total(
                one("quotient.KoszulComplex.__init__"), 1),
            "quotient.KoszulComplex.differential.self_s": self_s(
                one("quotient.KoszulComplex.differential")),
            "quotient.KoszulComplex.cohomology.self_s": self_s(
                one("quotient.KoszulComplex.cohomology")),
            "quotient.koszul_cells": c["quotient.koszul_cells"] / passes,
            "quotient.koszul_nnz": c["quotient.koszul_nnz"] / passes,
            "quotient.CubicalQuotient.self_s": self_s(
                prefix("quotient.CubicalQuotient.")),
            "quotient.cubical_cells": c["quotient.cubical_cells"] / passes,
            "equivariant.check_condition1.self_s": self_s(
                one("equivariant.check_condition1")),
            "equivariant.build_classifying_diagram.self_s": self_s(
                one("equivariant.build_classifying_diagram")),
            "equivariant.equivariant_limit.self_s": self_s(
                one("equivariant.equivariant_limit")),
            "intlattice.self_s": self_s(prefix("intlattice.")),
            "momentangle.hochster.self_s": self_s(
                one("momentangle.hochster")),
            "constructions.self_s": self_s(prefix("constructions.")),
            "formats.self_s": self_s(prefix("formats.")),
            "cli.self_s": self_s(prefix("cli.")),
        }
        for layer in LAYERS:
            out["%s.errors" % layer] = self.errors[layer] / passes
        out["trace.overhead_frac"] = \
            statistics.median(walls) * scale / untraced_wall_s - 1
        out["trace.unattributed_s"] = \
            (sum(walls) - self.top_s) / passes * scale
        return out

    def detail(self, passes):
        """Per-degree sizes and the full span table, per pass."""
        per_degree = {}
        for (name, degree), n in sorted(self.per_degree.items()):
            per_degree.setdefault(name, {})[str(degree)] = n / passes
        spans = {k: {"calls": v[0] / passes, "total_s": v[1] / passes,
                     "self_s": v[2] / passes}
                 for k, v in sorted(self.spans.items())}
        return {"per_degree": per_degree,
                "residue_max_shape": list(self.residue_max[1:]),
                "hook_s": self.hook_s / passes, "spans": spans}


# ---------------------------------------------------------------------------
# counter hooks: (tracer, frame, parent frame, args, result)
# ---------------------------------------------------------------------------

def _rank_and_invariants(tr, frame, parent, args, result):
    entries = args[0]
    rank, invariants = result
    tr.counts["exact.nnz_in"] += len(entries)
    tr.counts["exact.unit_pivots"] += rank - (frame[3] or 0)
    tr.max_bits = max(tr.max_bits, _bits(v for _, _, v in entries),
                      _bits(invariants))
    if entries and parent is not None and \
            parent[0].startswith("homology.ChainComplex."):
        tr.counts["homology.eliminations"] += 1


def _smith_normal_form(tr, frame, parent, args, result):
    if parent is None or parent[0] != RAI:
        return
    mat, diag = args[0], result[0]
    rows, cols = len(mat), len(mat[0]) if mat else 0
    tr.counts["exact.residue_cells"] += rows * cols
    tr.residue_max = max(tr.residue_max, (rows * cols, rows, cols))
    tr.max_bits = max(tr.max_bits, _bits(v for row in mat for v in row),
                      _bits(diag))
    parent[3] = len(diag)


def _chain_complex_init(tr, frame, parent, args, result):
    cc = args[0]
    for i, n in enumerate(cc.dims):
        tr.per_degree[("homology.cells", cc.min_degree + i)] += n
    tr.counts["homology.cells"] += sum(cc.dims)
    tr.counts["homology.boundary_nnz"] += sum(
        _nonzeros(b) for b in cc.boundaries[1:])


def _chain_complex_analysis(tr, frame, parent, args, result):
    tr.counts["homology.nonzero_boundaries"] += sum(
        1 for b in args[0].boundaries[1:] if _nonzeros(b))


def _koszul_init(tr, frame, parent, args, result):
    for n, cells in args[0].basis.items():
        tr.per_degree[("quotient.koszul_cells", n)] += len(cells)
        tr.counts["quotient.koszul_cells"] += len(cells)


def _koszul_differential(tr, frame, parent, args, result):
    if parent is not None and parent[0] == "quotient.KoszulComplex.cohomology":
        tr.per_degree[("quotient.koszul_nnz", args[1])] += len(result)
        tr.counts["quotient.koszul_nnz"] += len(result)


def _cubical_init(tr, frame, parent, args, result):
    tr.counts["quotient.cubical_cells"] += sum(args[0].dims)


_HOOKS = {
    RAI: _rank_and_invariants,
    SNF: _smith_normal_form,
    "homology.ChainComplex.__init__": _chain_complex_init,
    "homology.ChainComplex.homology": _chain_complex_analysis,
    "homology.ChainComplex.cohomology": _chain_complex_analysis,
    "homology.ChainComplex.homology_mod": _chain_complex_analysis,
    "quotient.KoszulComplex.__init__": _koszul_init,
    "quotient.KoszulComplex.differential": _koszul_differential,
    "quotient.CubicalQuotient.__init__": _cubical_init,
}
