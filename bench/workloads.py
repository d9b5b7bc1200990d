"""The benchmark workloads.

Four parts, each stressing different layers, are run as two workloads:
torsion_and_queries (the Smith form dominates) and assembly_and_rational
(no Smith form at all).  Two long workloads rather than four short ones,
because a shared 2-vCPU Xeon VM was measured to drift in speed by up to
a third over spells of seconds to minutes, and a run has to span several
spells to be steady.

A part has a `setup(workdir)` that builds its inputs (and returns a list
of setup check failures), and an `ops(rng)` generator that yields one
pass of `Op`s.  The harness times `op.run()` alone; input preparation
inside the generator and `check(op, result)` run untimed.

Pinned answers live in `expected.json`, written by `pin.py` from the
code the benchmark was introduced against.
"""

import json
import os
from contextlib import redirect_stdout
from io import StringIO

import numpy as np

from realcech import cli, io, standard
from realcech.cochains import RealComplex
from realcech.coefficients import RealRepresentation, make_standard
from realcech import nerve as nerve_mod
from realcech import proper

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def load_expected():
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def groupoid(name):
    """The named groupoids of the workloads (names follow tests/conftest.py)."""
    build = {
        "Z3": lambda: standard.cyclic_group(3),
        "Z4": lambda: standard.cyclic_group(4),
        "Z4_inv": lambda: standard.cyclic_group(4, "inversion"),
        "Z6_inv": lambda: standard.cyclic_group(6, "inversion"),
        "pair2": lambda: standard.pair_groupoid(2),
        "pair3": lambda: standard.pair_groupoid(3),
        "pair3_swap01": lambda: standard.pair_groupoid(3, [1, 0, 2]),
        "flip": standard.flip_action_groupoid,
        "Z2+Z2_swap": lambda: standard.disjoint_union(
            standard.cyclic_group(2), standard.cyclic_group(2), swap=True),
    }
    return build[name]()


class Op:
    """One timed call.  `observe(result)` gives the JSON value pinned in
    expected.json; `verify(result)` is an extra self-check returning an
    error message or None."""

    __slots__ = ("id", "run", "observe", "verify")

    def __init__(self, id, run, observe=None, verify=None):
        self.id = id
        self.run = run
        self.observe = observe
        self.verify = verify


class Workload:
    name = ""

    def __init__(self, expected):
        self.expected = expected.get(self.name, {})

    def check(self, op, result):
        """None if the result is right, else a one-line reason."""
        if op.observe is not None:
            got = op.observe(result)
            if op.id not in self.expected:
                return f"{op.id}: no pinned value"
            if got != self.expected[op.id]:
                return f"{op.id}: got {got!r}, pinned {self.expected[op.id]!r}"
        if op.verify is not None:
            return op.verify(result)
        return None


# ----------------------------------------------------------------------

class TorsionLadder(Workload):
    """`realcech cohomology` jobs through the in-process CLI entry, output
    compared byte for byte; one `realcech validate` per input groupoid."""

    name = "torsion_ladder"
    JOBS = (
        [("Z4_inv", c, n) for c in ("mu(4)_conj", "Z2_trivial", "Z_sign") for n in range(4)]
        + [(g, c, n) for g in ("pair3", "pair3_swap01")
           for c in ("mu(4)_conj", "Z2_trivial") for n in range(4)]
        + [("Z6_inv", c, n) for c in ("mu(4)_conj", "Z2_trivial", "Z_sign") for n in range(3)]
        + [(g, "mu(4)_conj", n) for g in ("flip", "Z2+Z2_swap") for n in range(4)]
    )
    GROUPOIDS = ("Z4_inv", "pair3", "pair3_swap01", "Z6_inv", "flip", "Z2+Z2_swap")

    def setup(self, workdir):
        self.paths = {}
        for name in self.GROUPOIDS:
            path = os.path.join(workdir, name + ".json")
            with open(path, "w") as fh:
                fh.write(io.dumps(io.groupoid_to_json(groupoid(name))))
            self.paths[name] = path
        return []

    def ops(self, rng):
        for name in self.GROUPOIDS:
            yield _cli_op(f"validate {name}", ["validate", self.paths[name]])
        for g, c, n in self.JOBS:
            yield _cli_op(f"cohomology {g} {c} {n}",
                          ["cohomology", self.paths[g], "--coeff", c, "--n", str(n)])


def _cli_op(op_id, argv):
    def run():
        buf = StringIO()
        with redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    return Op(op_id, run, observe=lambda r: r[1],
              verify=lambda r: None if r[0] == 0 else f"{op_id}: exit code {r[0]}")


# ----------------------------------------------------------------------

class AssemblyDeep(Workload):
    """Differentials d^0..d^4 and the simplicial identities up to degree
    3; checked for d o d = 0 modulo the target moduli and pinned shapes
    and nonzero counts."""

    name = "assembly_deep"
    GROUPOIDS = ("Z3", "Z4", "pair2", "Z4_inv", "pair3_swap01", "flip")
    COEFFS = ("mu(4)_conj", "Z_sign")
    TOP = 4

    def setup(self, workdir):
        self.groupoids = {g: groupoid(g) for g in self.GROUPOIDS}
        self.coeffs = {c: make_standard(c) for c in self.COEFFS}
        return []

    def ops(self, rng):
        for g in self.GROUPOIDS:
            G = self.groupoids[g]
            for c in self.COEFFS:
                state = {}
                for n in range(self.TOP + 1):
                    yield Op(f"d{n} {g} {c}", self._diff_run(state, G, self.coeffs[c], n),
                             observe=_shape_nnz,
                             verify=self._dd_verify(state, n))
            yield Op(f"identities {g}",
                     lambda G=G: nerve_mod.check_simplicial_identities(G, 3),
                     observe=len)

    @staticmethod
    def _diff_run(state, G, S, n):
        def run():
            if n == 0:
                state["cx"] = RealComplex(G, S)
            return state["cx"].differential_matrix(n)
        return run

    @staticmethod
    def _dd_verify(state, n):
        def verify(D):
            prev = state.get(n - 1)
            state[n] = D
            if prev is None:
                return None
            if D.shape[1] != prev.shape[0]:
                return f"d{n}: shape {D.shape} does not follow {prev.shape}"
            dd = _as_int64(D) @ _as_int64(prev)
            moduli = np.array(state["cx"].basis(n + 1).moduli, dtype=np.int64)
            safe = np.where(moduli > 0, moduli, 1)[:, None]
            residue = np.where(moduli[:, None] > 0, dd % safe, dd)
            return None if not residue.any() else f"d{n} o d{n - 1} is not zero"
        return verify


def _as_int64(D):
    if D.size and max(abs(int(v)) for v in D.flat) >= 1 << 20:
        raise OverflowError("differential entries too large for the int64 check")
    return D.astype(np.int64)


def _shape_nnz(D):
    return [int(D.shape[0]), int(D.shape[1]), int(np.count_nonzero(D != 0))]


# ----------------------------------------------------------------------

class RationalVanish(Workload):
    """Rational vanishing reports and the contraction identity
    h d + d h = id over exact rationals."""

    name = "rational_vanish"
    CASES = ("Z4", "pair3", "pair3_swap01", "flip", "Z4_inv", "Z4_inv_rot")
    TOP = 3

    def setup(self, workdir):
        self.reps = {}
        for case in self.CASES:
            if case == "Z4_inv_rot":
                # the rotation representation of demos/04_proper_vanishing.py
                G = groupoid("Z4_inv")
                rot = np.array([[0, -1], [1, 0]])
                action = [np.linalg.matrix_power(rot, g).tolist() for g in range(4)]
                self.reps[case] = RealRepresentation(G, 1, 1, action, [[[1, 0], [0, -1]]])
            else:
                self.reps[case] = RealRepresentation.trivial(groupoid(case), 1, 1)
        return []

    def ops(self, rng):
        for case in self.CASES:
            rep = self.reps[case]
            yield Op(f"vanish {case}",
                     lambda rep=rep: proper.vanishing_check(rep.groupoid, rep, self.TOP),
                     observe=lambda r: r)
            state = {}
            for n in range(1, self.TOP + 1):
                yield Op(f"contraction {case} {n}", self._contraction_run(state, rep, n),
                         observe=bool)

    @staticmethod
    def _contraction_run(state, rep, n):
        def run():
            if n == 1:
                state["cx"] = proper.RepComplex(rep.groupoid, rep)
            return proper.contraction_is_homotopy(state["cx"], n)
        return run


# ----------------------------------------------------------------------

class ClassQueries(Workload):
    """The read path: class_of on lift(c) + d(b) for random c and b, and
    every 10th query an is_coboundary on d(b) with its witness checked.
    The seed draws c and b only; cases go round-robin."""

    name = "class_queries"
    CASES = (("Z4_inv", "mu(4)_conj", 2), ("Z4_inv", "mu(4)_conj", 3),
             ("Z4", "mu(4)_conj", 2), ("Z6_inv", "mu(4)_conj", 2),
             ("pair3_swap01", "mu(4)_conj", 2), ("flip", "Z_sign", 3))
    QUERIES = 2000
    COBOUNDARY_EVERY = 10

    def setup(self, workdir):
        self.groups = []
        failures = []
        for g, c, n in self.CASES:
            cx = RealComplex(groupoid(g), make_standard(c))
            h = cx.cohomology(n)
            key = f"{g} {c} {n}"
            got = [h.group_key()[0], list(h.group_key()[1])]
            if got != self.expected.get(key):
                failures.append(f"HR^{n}({g}, {c}): got {got!r}, pinned {self.expected.get(key)!r}")
            orders = [order for _, order in h.representatives()]
            self.groups.append((key, cx, h, n, orders))
        return failures

    def ops(self, rng):
        for q in range(self.QUERIES):
            key, cx, h, n, orders = self.groups[q % len(self.groups)]
            coords = tuple(_draw(rng, d) for d in orders)
            b = cx.cochain(n - 1, [_draw(rng, d) for d in cx.basis(n - 1).moduli])
            db = cx.d(b)
            z = h.lift(coords) + db
            yield Op(f"class_of {key}", lambda h=h, z=z: h.class_of(z),
                     verify=lambda got, coords=coords, key=key: None if got == coords
                     else f"class_of {key}: got {got!r}, drew {coords!r}")
            if q % self.COBOUNDARY_EVERY == 0:
                yield Op(f"is_coboundary {key}", lambda cx=cx, db=db: cx.is_coboundary(db),
                         verify=lambda w, cx=cx, db=db, key=key: _witness_error(cx, w, db, key))


def _draw(rng, modulus):
    return rng.randrange(modulus) if modulus else rng.randrange(-3, 4)


def _witness_error(cx, w, target, key):
    if w is None:
        return f"is_coboundary {key}: no witness for a coboundary"
    if any((cx.d(w) - target).vector != 0):
        return f"is_coboundary {key}: d(witness) differs from the input"
    return None


PARTS = {w.name: w for w in (TorsionLadder, AssemblyDeep, RationalVanish, ClassQueries)}


class Combined(Workload):
    """Runs the ops of its parts one after the other, in one pass."""

    parts = ()

    def __init__(self, expected):
        self.members = [cls(expected) for cls in self.parts]
        self.expected = {k: v for m in self.members for k, v in m.expected.items()}

    def setup(self, workdir):
        return [f for m in self.members for f in m.setup(workdir)]

    def ops(self, rng):
        for m in self.members:
            yield from m.ops(rng)


class TorsionAndQueries(Combined):
    name = "torsion_and_queries"
    parts = (TorsionLadder, ClassQueries)


class AssemblyAndRational(Combined):
    name = "assembly_and_rational"
    parts = (AssemblyDeep, RationalVanish)


WORKLOADS = {w.name: w for w in (TorsionAndQueries, AssemblyAndRational)}
