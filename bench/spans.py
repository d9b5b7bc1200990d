"""Per-layer spans recorded from outside the package.

`Tracer.install()` replaces public entry points of the realcech modules
with wrappers, at the place where callers look them up (`cochains` and
`proper` import `nerve` and `face` by name, so their own bindings are
patched as well).  `Tracer.uninstall()` puts the originals back.

A wrapper records only while `tracer.active` is true, which the harness
sets around each timed call.  Two kinds of wrapper exist:

* a span times the call; its self time is its duration minus the time
  covered by spans opened inside it;
* a counter only counts calls (used on hot, tiny functions such as
  `face`, where timing every call would cost more than the call).

Size counters computed after a call (nonzeros, bit-lengths, useful
columns) are bookkeeping: their time is subtracted from every open span
and from the timed call, so it does not show up as layer time.
"""

import time
from collections import defaultdict

import numpy as np

from realcech import cli, cochains, exact, groupoids, io, nerve, proper

perf_counter = time.perf_counter


def _cells(mat):
    shape = np.shape(mat)
    m = shape[0] if shape else 1
    n = shape[1] if len(shape) > 1 else 1
    return m * n


def _max_bits(arrays):
    best = 0
    for arr in arrays:
        if arr is None or not arr.size:
            continue
        best = max(best, max(abs(int(v)).bit_length() for v in arr.flat))
    return best


class Tracer:
    """Span and counter store for one traced run; see the module docstring."""

    def __init__(self):
        self.active = False
        self.bookkeeping_s = 0.0
        self.self_s = defaultdict(float)
        self.count = defaultdict(int)
        self.maximum = defaultdict(int)
        self._stack = []
        self._patches = []
        self._seen_diffs = {}

    # -- wrappers -------------------------------------------------------

    def span(self, name, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            children = [0.0]
            tracer._stack.append(children)
            bk0 = tracer.bookkeeping_s
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0 - (tracer.bookkeeping_s - bk0)
                tracer._stack.pop()
                tracer.self_s[name] += dur - children[0]
                tracer.count[name] += 1
                if tracer._stack:
                    tracer._stack[-1][0] += dur
            if after is not None:
                tracer.bookkeep(after, args, result)
            return result

        return wrapper

    def counter(self, name, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.count[name] += 1
                if after is not None:
                    tracer.bookkeep(after, args, None)
            return fn(*args, **kwargs)

        return wrapper

    def bookkeep(self, fn, args, result):
        t0 = perf_counter()
        fn(args, result)
        self.bookkeeping_s += perf_counter() - t0

    # -- size counters ----------------------------------------------------

    def _snf_sizes(self, args, result):
        self.count["exact.snf.cells"] += _cells(args[0])
        bits = _max_bits(result)
        self.maximum["exact.snf.max_bits"] = max(self.maximum["exact.snf.max_bits"], bits)

    def _rref_sizes(self, args, result):
        self.count["exact.rref.cells"] += _cells(args[0])

    def _basis_sizes(self, args, result):
        free, fixed = args[0].counts()
        self.count["cochains.orbits.free"] += free
        self.count["cochains.orbits.fixed"] += fixed

    def _assembly_sizes(self, args, result):
        # differential_matrix caches; count each matrix once
        if id(result) in self._seen_diffs:
            return
        self._seen_diffs[id(result)] = result
        self.count["cochains.assembly.cells"] += result.size
        self.count["cochains.assembly.nnz"] += int(np.count_nonzero(result != 0))

    def _fixed_coords_useful(self, args, result):
        if any(v != 0 for v in args[1]):
            self.count["cochains.fixed_coords.useful"] += 1

    def _corestrict_useful(self, args, result):
        X = args[2]
        self.count["proper.corestrict.columns"] += X.shape[1]
        self.count["proper.corestrict.useful"] += sum(
            1 for c in range(X.shape[1]) if any(v != 0 for v in X[:, c]))

    def _nerve_sizes(self, args, result):
        self.count["nerve.tuples"] += len(result)
        self.maximum["nerve.max_tuples"] = max(self.maximum["nerve.max_tuples"], len(result))

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        span, counter = self.span, self.counter
        E, C, P = exact, cochains, proper
        self._patch(E, "smith_normal_form", span("exact.snf", E.smith_normal_form, self._snf_sizes))
        self._patch(E.IntSolver, "solve", span("exact.int_solve", E.IntSolver.solve))
        for attr in ("lattice_mod_relations", "lattice_basis"):
            self._patch(E, attr, span("exact.presentation", getattr(E, attr)))
        AGP = E.AbelianGroupPresentation
        self._patch(AGP, "__init__", span("exact.presentation", AGP.__init__))
        self._patch(AGP, "class_coords", span("exact.class_coords", AGP.class_coords))
        for attr in ("frac_rank", "frac_kernel", "frac_solve"):
            self._patch(E, attr, span("exact.rref", getattr(E, attr), self._rref_sizes))

        self._patch(C.LevelBasis, "__init__",
                    span("cochains.basis", C.LevelBasis.__init__, self._basis_sizes))
        self._patch(C.RealComplex, "differential_matrix",
                    span("cochains.assembly", C.RealComplex.differential_matrix,
                         self._assembly_sizes))
        self._patch(C.SBlocks, "to_fixed_coords",
                    counter("cochains.fixed_coords", C.SBlocks.to_fixed_coords,
                            self._fixed_coords_useful))
        self._patch(C.RealComplex, "is_coboundary",
                    span("cochains.coboundary", C.RealComplex.is_coboundary))

        level = span("nerve.level", nerve.nerve, self._nerve_sizes)
        face = counter("nerve.face", nerve.face)
        for mod in (nerve, C, P):
            self._patch(mod, "nerve", level)
            self._patch(mod, "face", face)
        self._patch(nerve, "check_simplicial_identities",
                    span("nerve.identities", nerve.check_simplicial_identities))

        self._patch(P.RepLevelBasis, "__init__", span("proper.basis", P.RepLevelBasis.__init__))
        self._patch(P.RepLevelBasis, "corestrict",
                    counter("proper.corestrict", P.RepLevelBasis.corestrict,
                            self._corestrict_useful))
        self._patch(P.RepComplex, "differential_matrix",
                    span("proper.assembly", P.RepComplex.differential_matrix))
        self._patch(P.RepComplex, "contraction_matrix",
                    span("proper.contraction", P.RepComplex.contraction_matrix))
        self._patch(P, "homotopy_identity_matrices",
                    span("proper.identity", P.homotopy_identity_matrices))

        for attr in ("load_json", "groupoid_from_json", "coefficients_from_json"):
            self._patch(io, attr, span("io.parse", getattr(io, attr)))
        for attr in ("dumps", "presentation_to_json"):
            self._patch(io, attr, span("io.dumps", getattr(io, attr)))
        self._patch(cli, "main", span("cli", cli.main))
        FRG = groupoids.FiniteRealGroupoid
        self._patch(FRG, "validate", span("groupoids.validate", FRG.validate))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        self.active = False

    # -- results ----------------------------------------------------------

    def layer_seconds(self):
        return sum(self.self_s.values())

    def metrics(self):
        """Every per-layer metric by name: (value, unit)."""
        s, c, mx = self.self_s, self.count, self.maximum

        def ratio(useful, calls):
            return c[useful] / c[calls] if c[calls] else 0.0

        out = {}
        for name in ("exact.snf", "exact.int_solve", "exact.presentation",
                     "exact.class_coords", "exact.rref", "cochains.basis",
                     "cochains.assembly", "cochains.coboundary", "nerve.level",
                     "nerve.identities", "proper.basis", "proper.assembly",
                     "proper.contraction", "proper.identity", "io.parse",
                     "io.dumps", "cli", "groupoids.validate"):
            out[name + ".self_s"] = (s[name], "s")
        for name in ("exact.snf", "exact.int_solve", "exact.class_coords",
                     "exact.rref", "nerve.level", "nerve.face",
                     "cochains.fixed_coords", "proper.corestrict"):
            out[name + ".calls"] = (c[name], "count")
        for name in ("exact.snf.cells", "exact.rref.cells", "cochains.orbits.free",
                     "cochains.orbits.fixed", "cochains.assembly.cells",
                     "cochains.assembly.nnz", "nerve.tuples",
                     "proper.corestrict.columns"):
            out[name] = (c[name], "count")
        out["exact.snf.max_bits"] = (mx["exact.snf.max_bits"], "bits")
        out["nerve.max_tuples"] = (mx["nerve.max_tuples"], "count")
        out["cochains.fixed_coords.useful_ratio"] = (
            ratio("cochains.fixed_coords.useful", "cochains.fixed_coords"), "ratio")
        out["proper.corestrict.useful_ratio"] = (
            ratio("proper.corestrict.useful", "proper.corestrict.columns"), "ratio")
        return out
